package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"clrdse/internal/obs"
)

// Span names. Spans are recorded in the benchmark's own code, around
// calls into each layer's public functions; the program itself is not
// instrumented.
const (
	spanCall    = "client.call"    // Client.QoS / Client.DecideBatch
	spanHandler = "fleet.handler"  // Server.Handler, via Server.Wrap
	spanBase    = "dse.run_base"   // dse.RunBase
	spanReD     = "dse.run_red"    // dse.RunReD
	spanStage1  = "core.stage_one" // core.Build with SkipReD
)

var spanNames = [...]string{spanCall, spanHandler, spanBase, spanReD, spanStage1}

// maxSpans bounds the in-memory span buffer; spans past it are counted
// in the aggregates but not dumped.
const maxSpans = 1 << 18

// span is one timed interval. Trace groups the spans of one request
// (the client call and the handler it caused share it); Parent is the
// trace of the causing span, 0 for a root.
type span struct {
	name       uint8
	trace      uint64
	parent     uint64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory and per-name aggregates. Recording is
// lock-free: concurrent callers claim distinct buffer slots.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	buf   []span
	n     atomic.Int64
	count [len(spanNames)]atomic.Int64
	sumNs [len(spanNames)]atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func nameIndex(name string) uint8 {
	for i, n := range spanNames {
		if n == name {
			return uint8(i)
		}
	}
	panic("clrbench: unknown span " + name)
}

// record stores one span.
func (t *tracer) record(name string, trace, parent uint64, start, end int64) {
	i := nameIndex(name)
	t.count[i].Add(1)
	t.sumNs[i].Add(end - start)
	if k := t.n.Add(1) - 1; k < maxSpans {
		t.buf[k] = span{name: i, trace: trace, parent: parent, start: start, end: end}
	}
}

// reset drops the aggregates (not the dump) so a phase can be
// measured on its own.
func (t *tracer) reset() {
	for i := range t.count {
		t.count[i].Store(0)
		t.sumNs[i].Store(0)
	}
}

// meanUs is the mean duration of the named spans in microseconds.
func (t *tracer) meanUs(name string) float64 {
	i := nameIndex(name)
	return ratio(float64(t.sumNs[i].Load())/1e3, float64(t.count[i].Load()))
}

// withTrace stamps ctx with a trace ID for the call, so the handler
// span on the server side can name the call that caused it.
func withTrace(ctx context.Context, id uint64) context.Context {
	return obs.WithTrace(ctx, obs.TraceID(fmt.Sprintf("%016x", id)))
}

// middleware times the fleet server's handler while tracing is on.
// Installed with fleet.Server.Wrap, it sits between the cluster
// router (when present) and the fleet mux, so on a cluster the
// handler span is recorded on the node that decides.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		id, err := strconv.ParseUint(r.Header.Get(obs.TraceHeader), 16, 64)
		if err != nil {
			id = 0
		}
		t.record(spanHandler, id, id, start, end)
	})
}

// dump writes the recorded spans as JSON lines and returns the path.
func (t *tracer) dump(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	n := min(t.n.Load(), maxSpans)
	for _, s := range t.buf[:n] {
		fmt.Fprintf(w, `{"name":%q,"trace":"%016x","parent":"%016x","start_ns":%d,"end_ns":%d}`+"\n",
			spanNames[s.name], s.trace, s.parent, s.start, s.end)
	}
	if dropped := t.n.Load() - n; dropped > 0 {
		fmt.Fprintf(w, `{"dropped":%d}`+"\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
