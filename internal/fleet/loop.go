package fleet

import (
	"context"
	"log/slog"
	"time"
)

// Loop is the background driver shared by the workers that swap a
// cohort's replicated artifacts (evolve.Worker for databases,
// cohort.Worker for value tables). A worker embeds it and supplies only
// its act step; the loop owns the tick, the reconcile-first preamble
// and the cluster agreement gate.
type Loop struct {
	// Interval is the tick period of Run (0 selects 1 minute).
	Interval time.Duration
	// Agreement, when non-nil, gates the worker's swap (cutover,
	// publish) on external consensus — the cluster layer's check that
	// every alive peer holds the same artifact. Returning false defers
	// the swap to a later tick; an error is logged and also defers.
	Agreement func(ctx context.Context, database string) (bool, error)
	// Reconcile, when non-nil, runs first on every step — the cluster
	// layer's catch-up hook (cluster.Node.CatchUpVersions,
	// CatchUpVTables): swaps are not atomic across nodes, so a peer can
	// swap first, after which this node's Agreement stays false forever
	// unless it adopts the winner's artifact. Reconcile returning true
	// means an artifact was adopted; the step then ends (cohort state
	// just changed under the worker) and the next tick resumes from the
	// adopted version. An error is logged, never fatal.
	Reconcile func(ctx context.Context, database string) (bool, error)
	// Logger receives state-transition lines (nil selects the default).
	Logger *slog.Logger
}

// Log returns the loop's logger.
func (l *Loop) Log() *slog.Logger {
	if l.Logger != nil {
		return l.Logger
	}
	return slog.Default()
}

// Reconciled runs the Reconcile hook for the cohort and reports
// whether the step must end because an artifact was adopted. what
// prefixes the log lines ("evolve", "cohort").
func (l *Loop) Reconciled(ctx context.Context, what, database string) bool {
	if l.Reconcile == nil {
		return false
	}
	adopted, err := l.Reconcile(ctx, database)
	switch {
	case err != nil:
		l.Log().WarnContext(ctx, what+": catch-up failed", "db", database, "err", err)
		return false
	case adopted:
		l.Log().InfoContext(ctx, what+": adopted a peer's artifact; resuming from it next tick", "db", database)
	}
	return adopted
}

// Agreed runs the Agreement gate before a swap and reports whether the
// swap may proceed; attrs describe the deferred swap in the log line.
func (l *Loop) Agreed(ctx context.Context, what, database string, attrs ...any) bool {
	if l.Agreement == nil {
		return true
	}
	ok, err := l.Agreement(ctx, database)
	if err != nil {
		l.Log().WarnContext(ctx, what+": cluster agreement check failed; deferring", "db", database, "err", err)
		return false
	}
	if !ok {
		l.Log().InfoContext(ctx, what+": cluster not in agreement; deferring", append([]any{"db", database}, attrs...)...)
	}
	return ok
}

// Run calls step every Interval until ctx is cancelled. Step errors
// are logged, never fatal: the workers are background optimisers, and
// serving must not depend on them.
func (l *Loop) Run(ctx context.Context, what, database string, step func(context.Context) error) {
	interval := l.Interval
	if interval <= 0 {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := step(ctx); err != nil {
				l.Log().WarnContext(ctx, what+": step failed", "db", database, "err", err)
			}
		}
	}
}
