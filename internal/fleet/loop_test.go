package fleet

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"testing"
	"time"
)

// TestLoopHooks pins the shared worker preamble and gate: absent hooks
// neither end nor defer a step, a failed reconcile never ends one, and
// a failed or negative agreement check defers the swap.
func TestLoopHooks(t *testing.T) {
	ctx := context.Background()
	l := Loop{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if l.Reconciled(ctx, "t", "db") || !l.Agreed(ctx, "t", "db") {
		t.Fatal("absent hooks ended or deferred the step")
	}
	for _, c := range []struct {
		adopted bool
		err     error
		want    bool
	}{{true, nil, true}, {false, nil, false}, {true, errors.New("peer down"), false}} {
		l.Reconcile = func(context.Context, string) (bool, error) { return c.adopted, c.err }
		if got := l.Reconciled(ctx, "t", "db"); got != c.want {
			t.Errorf("Reconcile (%v, %v): step ended = %v, want %v", c.adopted, c.err, got, c.want)
		}
	}
	for _, c := range []struct {
		ok   bool
		err  error
		want bool
	}{{true, nil, true}, {false, nil, false}, {true, errors.New("peer down"), false}} {
		l.Agreement = func(context.Context, string) (bool, error) { return c.ok, c.err }
		if got := l.Agreed(ctx, "t", "db", "version", 1); got != c.want {
			t.Errorf("Agreement (%v, %v): proceed = %v, want %v", c.ok, c.err, got, c.want)
		}
	}
}

// TestLoopRun: Run keeps stepping through step errors and returns once
// its context is cancelled.
func TestLoopRun(t *testing.T) {
	l := Loop{Interval: time.Millisecond, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Run(ctx, "t", "db", func(context.Context) error {
			if steps++; steps == 3 {
				cancel()
			}
			return errors.New("logged, never fatal")
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if steps < 3 {
		t.Fatalf("Run stepped %d times before returning, want at least 3", steps)
	}
}
