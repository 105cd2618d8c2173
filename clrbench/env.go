package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"time"

	"clrdse/internal/cluster"
	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/client"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
)

// stack is one running fleet server, a cluster member when the
// workload runs more than one node.
type stack struct {
	srv  *fleet.Server
	node *cluster.Node
	url  string
	done chan error
}

// device is one simulated device: its ID, its event stream and, for
// the replayed subset, every event it was answered.
type device struct {
	id     string
	src    *rng.Source
	stream *runtime.SpecStream
	seq    uint64
	remote bool // owned by a node other than the one the client calls

	replay bool
	broken bool // an event failed, so the replay log is incomplete
	log    []served
}

// nextSpec draws the device's next QoS specification.
func (d *device) nextSpec() fleet.QoSSpecJSON {
	s := d.stream.Next(d.src)
	return fleet.QoSSpecJSON{SMaxMs: s.SMaxMs, FMin: s.FMin}
}

// env is a running serving set-up: servers, the resilient client on
// its own transport, and the registered devices split over callers.
type env struct {
	cfg       *Config
	red       fleet.NamedDatabase
	stacks    []*stack
	transport *http.Transport
	client    *client.Client
	devs      []*device
	callers   []*caller
	initial   fleet.QoSSpecJSON
	// mp are the detached-manager parameters matching the devices'
	// registration, for the replay check.
	mp runtime.ManagerParams
}

// qosModel is the event process client.RunLoad drives: specifications
// drawn around the database's satisfiable envelope with the run-time
// simulator's drift characteristics.
func qosModel(minS, maxS, minF, maxF float64) runtime.QoSModel {
	return runtime.QoSModel{
		MeanS: (minS + maxS) / 2, StdS: (maxS - minS) / 4,
		MeanF: (minF + maxF) / 2, StdF: (maxF - minF) / 4,
		Rho: -0.3, Persist: 0.6,
		LoS: minS, HiS: maxS * 1.05,
		LoF: minF * 0.98, HiF: maxF,
	}
}

// newDevices derives the devices' IDs and event streams from the
// workload seed alone. Each ID leads with its own random token, as
// serial numbers do: the FNV-1a ring and registry shards place IDs
// that differ only in a trailing counter unevenly (with a shared
// prefix, node 1's share of 256 devices ranged 0.42-0.95 over ten
// seeds), which would make the forwarded share a property of the seed.
func newDevices(seed int64, n int, model runtime.QoSModel) []*device {
	root := rng.New(seed)
	tokens := root.Split(-1)
	devs := make([]*device, n)
	for i := range devs {
		devs[i] = &device{
			id:     fmt.Sprintf("d%012x-%d", tokens.Int63()&(1<<48-1), i),
			src:    root.Split(int64(i)),
			stream: model.Stream(),
		}
	}
	return devs
}

// inputStream renders the first events of every device as bytes: the
// exact input a seed generates, for the determinism test.
func inputStream(seed int64, n, events int, model runtime.QoSModel) []byte {
	var out []byte
	for _, d := range newDevices(seed, n, model) {
		out = append(out, d.id...)
		for range events {
			s := d.nextSpec()
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(s.SMaxMs))
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(s.FMin))
		}
	}
	return out
}

// startEnv starts the workload's server(s) on loopback listeners,
// registers every device through the client and, for serve-batch,
// installs the shadow candidate. dbs[0] is the database devices
// register against.
func startEnv(cfg *Config, dbs []fleet.NamedDatabase, tr *tracer) (*env, error) {
	e := &env{cfg: cfg, red: dbs[0]}
	trig, err := fleet.ParseTrigger(cfg.Trigger)
	if err != nil {
		return nil, err
	}
	e.mp = runtime.ManagerParams{DB: e.red.DB, Space: e.red.Space, PRC: devicePRC, Trigger: trig}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	lns := make([]net.Listener, cfg.Nodes)
	var peers []cluster.Peer
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers = append(peers, cluster.Peer{ID: fmt.Sprintf("node-%d", i), URL: "http://" + ln.Addr().String()})
	}
	for i, ln := range lns {
		st, err := startStack(cfg, dbs, tr, peers, i, discard)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, err
		}
		e.stacks = append(e.stacks, st)
		go func() { st.done <- st.srv.Serve(ln) }()
	}

	e.transport = http.DefaultTransport.(*http.Transport).Clone()
	e.transport.MaxConnsPerHost = callers
	e.transport.MaxIdleConnsPerHost = callers
	e.client = client.New(client.Config{
		BaseURL:        e.stacks[0].url,
		Transport:      e.transport,
		MaxAttempts:    1,
		AttemptTimeout: 10 * time.Second,
		JitterSeed:     cfg.Seed,
		Binary:         cfg.Batch > 0,
	})

	minS, maxS, minF, maxF := e.red.Envelope()
	e.initial = fleet.QoSSpecJSON{SMaxMs: maxS, FMin: minF}
	e.devs = newDevices(cfg.Seed, cfg.Devices, qosModel(minS, maxS, minF, maxF))
	ctx := context.Background()
	for _, d := range e.devs {
		req := fleet.RegisterRequest{
			ID: d.id, Database: e.red.Name, PRC: devicePRC,
			Trigger: cfg.Trigger, Gamma: cfg.Gamma, Initial: e.initial,
		}
		if _, err := e.client.Register(ctx, req); err != nil {
			return nil, fmt.Errorf("register %s: %w", d.id, err)
		}
		if n := e.stacks[0].node; n != nil {
			d.remote = n.Ring().Owner(d.id) != n.Self()
		}
	}
	if cfg.Shadow {
		cand := &dse.Database{Name: e.red.DB.Name, Version: e.red.DB.Version + 1, Points: e.red.DB.Points}
		if err := e.stacks[0].srv.Registry().ProposeDatabase(e.red.Name, cand); err != nil {
			return nil, fmt.Errorf("install shadow candidate: %w", err)
		}
	}
	step := max(1, len(e.devs)/max(1, cfg.Replayed))
	for i := 0; i < len(e.devs) && i/step < cfg.Replayed; i += step {
		e.devs[i].replay = true
	}
	per := len(e.devs) / callers
	for c := range callers {
		e.callers = append(e.callers, newCaller(e, c, e.devs[c*per:(c+1)*per]))
	}
	ok = true
	return e, nil
}

// startStack builds node i: the fleet server, the tracing middleware
// (traced runs) and, on a cluster, the ring router in front, the way
// fleettest.NewCluster assembles a member.
func startStack(cfg *Config, dbs []fleet.NamedDatabase, tr *tracer, peers []cluster.Peer, i int, log *slog.Logger) (*stack, error) {
	srv, err := fleet.NewServer(fleet.ServerConfig{Databases: dbs, TraceSeed: int64(i), Logger: log})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		srv.Wrap(tr.middleware)
	}
	st := &stack{srv: srv, url: peers[i].URL, done: make(chan error, 1)}
	if cfg.Nodes > 1 {
		st.node, err = cluster.New(cluster.Config{
			Self: peers[i].ID, Peers: peers, TraceSeed: 1000 + int64(i), Logger: log,
		}, srv)
		if err != nil {
			return nil, err
		}
		srv.Wrap(st.node.Middleware)
	}
	return st, nil
}

// servers lists the running fleet servers.
func (e *env) servers() []*fleet.Server {
	out := make([]*fleet.Server, len(e.stacks))
	for i, s := range e.stacks {
		out[i] = s.srv
	}
	return out
}

// close stops every server and waits for each to return.
func (e *env) close() {
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	for _, s := range e.stacks {
		// A drain that overruns its grace only delays the exit;
		// Serve returns either way.
		_ = s.srv.Shutdown()
		<-s.done
	}
	e.stacks = nil
}

// checkReplays replays every replayed device's stream; see
// checkReplay.
func (e *env) checkReplays(c *checks) int {
	initial := e.initial.Spec()
	n := 0
	for _, d := range e.devs {
		if !d.replay || d.broken || len(d.log) == 0 {
			continue
		}
		p := e.mp
		if e.cfg.Gamma > 0 {
			p.Agent = runtime.NewAgentForDB(e.red.DB, e.cfg.Gamma, 0)
		}
		if err := checkReplay(p, initial, d.id, d.log); err != nil {
			c.failf("%v", err)
		}
		n++
	}
	if n == 0 {
		c.failf("no device stream could be replayed")
	}
	return n
}
