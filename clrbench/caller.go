package main

import (
	"context"
	"net/http"
	"slices"
	"sync"
	"time"

	"clrdse/internal/fleet"
)

// recentLen is how many of a caller's latest answered events it keeps
// for the CLRB codec timing: one 64-event batch.
const recentLen = 64

// caller is one closed-loop client: it sends its next call when the
// previous one answers, cycling round-robin over its own devices.
type caller struct {
	e      *env
	idx    int
	devs   []*device
	cursor int
	calls  uint64

	batch     []fleet.BatchEventJSON
	batchDevs []*device

	// recent is a ring of the latest answered events and their
	// answers.
	recent    []fleet.BatchEventJSON
	recentRes []fleet.BatchResultJSON
	recentN   int

	// Per-slice tallies, reset by run.
	lat, latLocal, latRemote []int64
	attempted, failed        int64
	answered                 int64
}

func newCaller(e *env, idx int, devs []*device) *caller {
	return &caller{
		e: e, idx: idx, devs: devs,
		recent:    make([]fleet.BatchEventJSON, recentLen),
		recentRes: make([]fleet.BatchResultJSON, recentLen),
	}
}

// sliceResult is one slice of a phase, summed over the callers.
type sliceResult struct {
	wall, cpu           time.Duration
	mem                 memSnap
	traced              bool
	attempted, answered int64
	failed              int64
	calls               int64
	lat                 []int64 // per-call latency, ns, sorted
	latLocal, latRemote []int64
}

func (s *sliceResult) rate() float64 { return ratio(float64(s.answered), s.wall.Seconds()) }

// runSlice runs every caller for d and returns the slice's tallies.
// With tr set, each call is a client.call span and carries its trace
// ID to the server.
func (e *env) runSlice(d time.Duration, tr *tracer, c *checks) sliceResult {
	m0, cpu0 := readMem(), cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, cl := range e.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(deadline, tr, c)
		}()
	}
	wg.Wait()
	r := sliceResult{wall: time.Since(start), cpu: cpuTime() - cpu0, mem: readMem().since(m0), traced: tr != nil}
	for _, cl := range e.callers {
		r.attempted += cl.attempted
		r.answered += cl.answered
		r.failed += cl.failed
		r.calls += int64(len(cl.lat))
		r.lat = append(r.lat, cl.lat...)
		r.latLocal = append(r.latLocal, cl.latLocal...)
		r.latRemote = append(r.latRemote, cl.latRemote...)
	}
	slices.Sort(r.lat)
	slices.Sort(r.latLocal)
	slices.Sort(r.latRemote)
	return r
}

// run sends calls until the deadline passes.
func (cl *caller) run(deadline time.Time, tr *tracer, c *checks) {
	cl.lat, cl.latLocal, cl.latRemote = cl.lat[:0], cl.latLocal[:0], cl.latRemote[:0]
	cl.attempted, cl.answered, cl.failed = 0, 0, 0
	for time.Now().Before(deadline) {
		ctx := context.Background()
		var id uint64
		if tr != nil {
			cl.calls++
			id = uint64(cl.idx+1)<<48 | cl.calls
			ctx = withTrace(ctx, id)
		}
		if cl.e.cfg.Batch > 0 {
			cl.batchCall(ctx, tr, id, c)
		} else {
			cl.singleCall(ctx, tr, id, c)
		}
	}
}

// singleCall sends one event on the single-event JSON endpoint.
func (cl *caller) singleCall(ctx context.Context, tr *tracer, id uint64, c *checks) {
	d := cl.devs[cl.cursor%len(cl.devs)]
	cl.cursor++
	spec := d.nextSpec()
	d.seq++
	cl.attempted++
	t0 := time.Now()
	dec, err := cl.e.client.QoS(ctx, d.id, d.seq, spec)
	dt := time.Since(t0)
	if tr != nil {
		end := tr.now()
		tr.record(spanCall, id, 0, end-int64(dt), end)
	}
	cl.lat = append(cl.lat, int64(dt))
	if d.remote {
		cl.latRemote = append(cl.latRemote, int64(dt))
	} else {
		cl.latLocal = append(cl.latLocal, int64(dt))
	}
	if err != nil || dec.Degraded {
		cl.failed++
		d.broken = true
		return
	}
	cl.answer(d, d.seq, spec, dec, c)
}

// batchCall sends Batch events, one per device, on the batch endpoint.
func (cl *caller) batchCall(ctx context.Context, tr *tracer, id uint64, c *checks) {
	n := cl.e.cfg.Batch
	cl.batch, cl.batchDevs = cl.batch[:0], cl.batchDevs[:0]
	for range n {
		d := cl.devs[cl.cursor%len(cl.devs)]
		cl.cursor++
		d.seq++
		cl.batch = append(cl.batch, fleet.BatchEventJSON{Device: d.id, Seq: d.seq, QoSSpecJSON: d.nextSpec()})
		cl.batchDevs = append(cl.batchDevs, d)
	}
	cl.attempted += int64(n)
	t0 := time.Now()
	res, err := cl.e.client.DecideBatch(ctx, cl.batch)
	dt := time.Since(t0)
	if tr != nil {
		end := tr.now()
		tr.record(spanCall, id, 0, end-int64(dt), end)
	}
	cl.lat = append(cl.lat, int64(dt))
	cl.latLocal = append(cl.latLocal, int64(dt))
	if err != nil {
		cl.failed += int64(n)
		for _, d := range cl.batchDevs {
			d.broken = true
		}
		return
	}
	for i, r := range res {
		d := cl.batchDevs[i]
		if r.Status != http.StatusOK || r.Decision == nil || r.Decision.Degraded {
			cl.failed++
			d.broken = true
			continue
		}
		cl.answer(d, cl.batch[i].Seq, cl.batch[i].QoSSpecJSON, r.Decision, c)
	}
}

// answer checks one answered event and records it.
func (cl *caller) answer(d *device, seq uint64, spec fleet.QoSSpecJSON, dec *fleet.DecisionJSON, c *checks) {
	cl.answered++
	if err := checkAnswer(dec, d.id, seq, spec, cl.e.red.DB); err != nil {
		c.failf("%v", err)
	}
	if d.replay {
		// The replay does not compare plans; dropping them keeps the
		// log's memory out of heap_mb.
		ans := *dec
		ans.Plan = nil
		d.log = append(d.log, served{spec: spec.Spec(), ans: ans})
	}
	k := cl.recentN % recentLen
	cl.recent[k] = fleet.BatchEventJSON{Device: d.id, Seq: seq, QoSSpecJSON: spec}
	cl.recentRes[k] = fleet.BatchResultJSON{Status: http.StatusOK, Decision: dec}
	cl.recentN++
}
