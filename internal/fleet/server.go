package fleet

// The HTTP/JSON front of the decision service. One Server hosts one
// Registry; handlers are thin translations between the wire types of
// api.go and the registry, with the operational wrapping a
// long-running service needs: per-endpoint request accounting, a
// request body cap, structured request logging, server-side timeouts
// and graceful drain on shutdown.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clrdse/internal/fleet/metrics"
	"clrdse/internal/obs"
)

// ServerConfig configures a fleet decision server.
type ServerConfig struct {
	// Databases are the decision bases devices can register against.
	Databases []NamedDatabase
	// Shards is the registry shard count (0 selects DefaultShards).
	Shards int
	// MaxBodyBytes caps request bodies (0 selects 1 MiB).
	MaxBodyBytes int64
	// ShutdownGrace bounds how long Shutdown waits for in-flight
	// decisions to drain (0 selects 10s).
	ShutdownGrace time.Duration
	// DecideTimeout bounds one QoS decision, including waiting for
	// the device's lock; past it the device answers degraded with its
	// last known-good configuration (0 selects 2s).
	DecideTimeout time.Duration
	// DecideHook optionally fault-checks the decision path (chaos
	// testing); see DecideHook.
	DecideHook DecideHook
	// ReadyMaxDegraded is the fraction of degraded devices above
	// which /readyz reports 503 (0 selects 0.5).
	ReadyMaxDegraded float64
	// Logger receives structured request logs (nil selects
	// slog.Default()). The server wraps the logger's handler with
	// obs.NewHandler, so every line carries the request's trace_id.
	Logger *slog.Logger
	// JournalCap sizes each registry shard's decision journal
	// (<= 0 selects obs.DefaultJournalCap).
	JournalCap int
	// TraceSeed seeds the trace-ID minter used for requests that
	// arrive without an X-Clr-Trace-Id header; the same seed mints the
	// same ID sequence, keeping traced soak runs reproducible.
	TraceSeed int64
}

// Server is the fleet decision service.
type Server struct {
	reg       *Registry
	log       *slog.Logger
	minter    *obs.Minter
	maxBody   int64
	grace     time.Duration
	decideTO  time.Duration
	readyFrac float64
	draining  atomic.Bool
	handler   http.Handler
	httpSrv   *http.Server
	reqCount  map[string]*metrics.Counter

	batchEvents *metrics.Counter
}

// NewServer validates the configuration (including every database)
// and builds the service.
func NewServer(cfg ServerConfig) (*Server, error) {
	reg, err := NewRegistry(cfg.Databases, cfg.Shards)
	if err != nil {
		return nil, err
	}
	reg.SetDecideHook(cfg.DecideHook)
	reg.SetJournalCap(cfg.JournalCap)
	s := &Server{
		reg:       reg,
		log:       cfg.Logger,
		minter:    obs.NewMinter(cfg.TraceSeed),
		maxBody:   cfg.MaxBodyBytes,
		grace:     cfg.ShutdownGrace,
		decideTO:  cfg.DecideTimeout,
		readyFrac: cfg.ReadyMaxDegraded,
		reqCount:  make(map[string]*metrics.Counter),
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	// Stamp every request log line with its trace ID.
	s.log = slog.New(obs.NewHandler(s.log.Handler()))
	if s.maxBody <= 0 {
		s.maxBody = 1 << 20
	}
	if s.grace <= 0 {
		s.grace = 10 * time.Second
	}
	if s.decideTO <= 0 {
		s.decideTO = 2 * time.Second
	}
	if s.readyFrac <= 0 {
		s.readyFrac = 0.5
	}
	s.handler = s.buildMux()
	s.httpSrv = s.newHTTPServer()
	return s, nil
}

// Registry exposes the underlying device registry, so embedders can
// pre-register devices or inspect the fleet without going through
// HTTP.
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the service's HTTP handler (for tests and embedders
// that bring their own http.Server).
func (s *Server) Handler() http.Handler { return s.handler }

// Wrap interposes middleware around the service's handler — the
// cluster layer's request router, a chaos injector. It must be called
// before Serve/Run (the handler is read without a lock once serving).
func (s *Server) Wrap(mw func(http.Handler) http.Handler) {
	s.handler = mw(s.handler)
	s.httpSrv.Handler = s.handler
}

// buildMux wires the v1 routes, each wrapped with request accounting
// and logging.
func (s *Server) buildMux() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		c := s.reg.met.Counter("clr_http_requests_total",
			"Requests per endpoint.", "endpoint", name)
		s.reqCount[name] = c
		mux.Handle(pattern, s.wrap(name, c, h))
	}
	s.batchEvents = s.reg.met.Counter("clr_fleet_batch_events_total",
		"QoS events received via the batch decide endpoint.")
	route("POST /v1/devices", "register", s.handleRegister)
	route("POST /v1/devices/{id}/qos", "qos", s.handleQoS)
	// ":" is a literal in ServeMux patterns, so the AIP-style custom
	// verb is just a distinct path — it can never collide with a
	// device ID, whose routes all live under the "/v1/devices/" tree.
	route("POST /v1/devices:decide-batch", "decide_batch", s.handleDecideBatch)
	route("GET /v1/devices/{id}", "get_device", s.handleGetDevice)
	route("DELETE /v1/devices/{id}", "delete_device", s.handleDeleteDevice)
	route("GET /v1/databases", "databases", s.handleDatabases)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /readyz", "readyz", s.handleReadyz)
	route("GET /metrics", "metrics", s.handleMetrics)
	route("GET /debug/decisions", "debug_decisions", s.handleDecisions)
	route("GET /debug/evolve", "debug_evolve", s.handleEvolve)
	route("GET /debug/cohort", "debug_cohort", s.handleCohort)
	return mux
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap applies the per-endpoint middleware: trace propagation, body
// cap, request counter, structured log line. This is the service's
// trace edge: a valid X-Clr-Trace-Id header is adopted (so client
// retries and multi-hop calls correlate), anything else is replaced
// by a minted ID; the ID rides the request context from here and is
// echoed back in the response header.
func (s *Server) wrap(name string, c *metrics.Counter, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		trace, err := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
		if err != nil {
			trace = s.minter.Mint()
		}
		r = r.WithContext(obs.WithTrace(r.Context(), trace))
		w.Header().Set(obs.TraceHeader, string(trace))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.log.InfoContext(r.Context(), "request",
			"endpoint", name,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_us", time.Since(start).Microseconds(),
			"remote", r.RemoteAddr,
		)
	})
}

// jsonBuf is pooled response-encoding scratch: the encoder is bound to
// the buffer once, so a response costs zero encoder allocations and
// ships with an exact Content-Length.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// writeJSON renders a response body with the given status. The bytes
// are identical to a plain json.NewEncoder(w).Encode(v) — the pooled
// buffer only changes where they are staged.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		jsonBufPool.Put(jb)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(jb.buf.Len()))
	w.WriteHeader(status)
	//lint:allow errdrop a response-write failure means the client is gone; there is no one left to tell
	_, _ = w.Write(jb.buf.Bytes())
	jsonBufPool.Put(jb)
}

// statusFor maps registry and validation errors onto status codes —
// shared by whole-request errors (writeError) and the batch endpoint's
// per-event results.
func statusFor(err error) int {
	var maxBytes *http.MaxBytesError
	switch {
	case errors.Is(err, ErrNoDevice), errors.Is(err, ErrNoDatabase):
		return http.StatusNotFound
	case errors.Is(err, ErrDeviceExists), errors.Is(err, ErrStaleSeq),
		errors.Is(err, ErrVersionSkew), errors.Is(err, ErrCandidateVersion),
		errors.Is(err, ErrNoCandidate), errors.Is(err, ErrNoPrevious):
		return http.StatusConflict
	case errors.As(err, &maxBytes):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeError maps registry and validation errors onto status codes.
func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), ErrorJSON{Error: err.Error()})
}

// decodeJSON strictly parses a request body into v: unknown fields and
// trailing data after the first JSON value are both rejected (a body
// like `{...}{...}` or `{...}]` used to be silently accepted up to the
// first value).
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("invalid request body: trailing data after JSON value")
	}
	return nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	params, err := req.Params()
	if err != nil {
		writeError(w, err)
		return
	}
	info, err := s.reg.Register(params)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, deviceJSON(info))
}

// qosScratch is pooled per-request state for the single-event decide
// path: the decode target and the response struct (whose Plan slice
// keeps its capacity across requests). Pool-reset rule: the decode
// target is zeroed before Decode (stale fields from the previous
// request must not leak into one that omits them), and the response
// struct is fully overwritten by decisionJSONInto.
type qosScratch struct {
	req QoSRequest
	dj  DecisionJSON
}

var qosScratchPool = sync.Pool{New: func() any { return new(qosScratch) }}

func (s *Server) handleQoS(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	qs := qosScratchPool.Get().(*qosScratch)
	defer qosScratchPool.Put(qs)
	qs.req = QoSRequest{}
	if err := decodeJSON(r, &qs.req); err != nil {
		writeError(w, err)
		return
	}
	if err := qs.req.validate(); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.decideTO)
	defer cancel()
	out, err := s.reg.DecideCtx(ctx, id, qs.req.Seq, qs.req.Spec())
	if err != nil {
		writeError(w, err)
		return
	}
	decisionJSONInto(&qs.dj, id, out.Decision)
	qs.dj.Seq = qs.req.Seq
	qs.dj.Degraded = out.Degraded
	writeJSON(w, http.StatusOK, &qs.dj)
}

// MaxBatchEvents caps one batch request; larger fleets split client
// side (the batching submitter never exceeds it).
const MaxBatchEvents = 8192

// batchScratch is the batch endpoint's pooled request state: decode
// targets, registry input/output, response structs and the binary
// encode buffer. Pool-reset rules: every slice is truncated to zero
// length before reuse; outcome slots are zeroed explicitly (DecideBatch
// treats a non-nil Err as "pre-failed, skip"); DecisionJSON entries are
// fully overwritten by decisionJSONInto before they are referenced.
// The JSON decode target is NOT pooled — encoding/json merges into
// existing slice elements, which would leak fields between requests.
type batchScratch struct {
	body    bytes.Buffer      // binary request body
	events  []BatchEventJSON  // decoded wire events (binary path)
	fleet   []BatchEvent      // registry input, index-aligned
	outs    []BatchOutcome    // registry output, index-aligned
	decs    []DecisionJSON    // per-event response scratch (Plan capacity reuse)
	results []BatchResultJSON // response body
	out     []byte            // binary response encode buffer
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// handleDecideBatch is POST /v1/devices:decide-batch: many QoS events,
// across any number of devices, scored in one request. Per-device
// ordering and seq semantics match the single-event path exactly; each
// event answers independently (Status 200 + decision, or its own error
// status), so a 404 or stale-seq entry never poisons the batch. The
// request body is JSON (BatchRequestJSON) or the compact binary frame
// (Content-Type: application/x-clr-bin); the response mirrors the
// request's encoding.
func (s *Server) handleDecideBatch(w http.ResponseWriter, r *http.Request) {
	bs := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(bs)

	binWire := strings.HasPrefix(r.Header.Get("Content-Type"), BinContentType)
	var evs []BatchEventJSON
	if binWire {
		bs.body.Reset()
		if _, err := bs.body.ReadFrom(r.Body); err != nil {
			writeError(w, err)
			return
		}
		var err error
		if evs, err = DecodeBatchRequest(bs.body.Bytes(), bs.events[:0]); err != nil {
			writeError(w, err)
			return
		}
		bs.events = evs
	} else {
		var req BatchRequestJSON
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, err)
			return
		}
		evs = req.Events
	}
	if len(evs) > MaxBatchEvents {
		writeError(w, fmt.Errorf("batch of %d events exceeds the %d-event cap", len(evs), MaxBatchEvents))
		return
	}
	s.batchEvents.Add(uint64(len(evs)))

	// Registry input/output, index-aligned with evs. Events that fail
	// wire validation pre-fill their outcome slot; DecideBatch skips
	// them.
	bs.fleet = bs.fleet[:0]
	if cap(bs.outs) < len(evs) {
		bs.outs = make([]BatchOutcome, len(evs))
	} else {
		bs.outs = bs.outs[:len(evs)]
		for i := range bs.outs {
			bs.outs[i] = BatchOutcome{}
		}
	}
	for i := range evs {
		bs.fleet = append(bs.fleet, BatchEvent{Device: evs[i].Device, Seq: evs[i].Seq, Spec: evs[i].Spec()})
		if evs[i].Device == "" {
			bs.outs[i].Err = errors.New("device must be non-empty")
		} else if err := evs[i].QoSSpecJSON.validate(); err != nil {
			bs.outs[i].Err = err
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.decideTO)
	defer cancel()
	s.reg.DecideBatch(ctx, bs.fleet, bs.outs)

	if cap(bs.decs) < len(evs) {
		bs.decs = append(bs.decs[:cap(bs.decs)], make([]DecisionJSON, len(evs)-cap(bs.decs))...)
	}
	bs.decs = bs.decs[:len(evs)]
	bs.results = bs.results[:0]
	for i := range evs {
		if err := bs.outs[i].Err; err != nil {
			bs.results = append(bs.results, BatchResultJSON{Status: statusFor(err), Error: err.Error()})
			continue
		}
		dj := &bs.decs[i]
		decisionJSONInto(dj, evs[i].Device, bs.outs[i].Out.Decision)
		dj.Seq = evs[i].Seq
		dj.Degraded = bs.outs[i].Out.Degraded
		bs.results = append(bs.results, BatchResultJSON{Status: http.StatusOK, Decision: dj})
	}

	if binWire {
		out, err := AppendBatchResponse(bs.out[:0], bs.results)
		if err != nil {
			writeError(w, err)
			return
		}
		bs.out = out
		w.Header().Set("Content-Type", BinContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		w.WriteHeader(http.StatusOK)
		//lint:allow errdrop a response-write failure means the client is gone; there is no one left to tell
		_, _ = w.Write(out)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponseJSON{Results: bs.results})
}

func (s *Server) handleGetDevice(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, deviceJSON(info))
}

func (s *Server) handleDeleteDevice(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Remove(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDatabases(w http.ResponseWriter, _ *http.Request) {
	dbs := s.reg.Databases()
	out := make([]DatabaseJSON, 0, len(dbs))
	for _, db := range dbs {
		out = append(out, databaseJSON(db))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is liveness: the process is up and serving. It stays
// 200 even when devices are degraded — a degraded fleet still answers
// (with last known-good configurations), so killing the process would
// only make things worse.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.reg.DegradedDevices() > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           status,
		"devices":          s.reg.Len(),
		"degraded_devices": s.reg.DegradedDevices(),
	})
}

// handleReadyz is readiness: whether this instance should receive new
// traffic. Unlike /healthz it turns 503 while draining and when the
// degraded-device fraction exceeds the configured ceiling, steering
// load balancers away while the instance recovers.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	n := s.reg.Len()
	deg := s.reg.DegradedDevices()
	body := map[string]any{"status": "ready", "devices": n, "degraded_devices": deg}
	switch {
	case s.draining.Load():
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
	case n > 0 && float64(deg) > s.readyFrac*float64(n):
		body["status"] = "degraded"
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		writeJSON(w, http.StatusOK, body)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.met.WritePrometheus(w)
}

// handleDecisions serves the decision journal: every recent decision
// with its explanation (chosen point, candidate counts, score, stage
// latencies, trace ID). Query parameters: device filters to one
// device; limit caps the answer to the newest N entries (default
// 1000, 0 keeps the default).
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	device := r.URL.Query().Get("device")
	limit := 1000
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("invalid limit %q", ls))
			return
		}
		if n > 0 {
			limit = n
		}
	}
	entries := s.reg.Decisions(device, limit)
	writeJSON(w, http.StatusOK, DecisionsJSON{
		Count:     len(entries),
		Device:    device,
		Decisions: entries,
	})
}

// handleEvolve serves the Continuous-ReD state: per-cohort active and
// candidate versions, the shadow window's agreement counters and the
// most recent divergences. Query parameter db filters to one cohort.
func (s *Server) handleEvolve(w http.ResponseWriter, r *http.Request) {
	serveStatuses(w, r, s.reg.EvolveStatus, s.reg.EvolveStatuses,
		func(sts []EvolveStatus) any { return EvolveJSON{Databases: sts} })
}

// handleCohort serves the cohort-learning state: per-cohort value-table
// version, epoch, fingerprints and aggregation provenance. Query
// parameter db filters to one cohort.
func (s *Server) handleCohort(w http.ResponseWriter, r *http.Request) {
	serveStatuses(w, r, s.reg.ValueTableStatus, s.reg.ValueTableStatuses,
		func(sts []ValueTableStatus) any { return CohortJSON{Databases: sts} })
}

// serveStatuses writes the status of the cohort named by query
// parameter db, or of every cohort without one, wrapped by doc.
func serveStatuses[T any](w http.ResponseWriter, r *http.Request, one func(string) (T, error), all func() []T, doc func([]T) any) {
	name := r.URL.Query().Get("db")
	if name == "" {
		writeJSON(w, http.StatusOK, doc(all()))
		return
	}
	st, err := one(name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, doc([]T{st}))
}

// newHTTPServer applies the service's server-side timeouts.
func (s *Server) newHTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// Serve accepts connections on l until Shutdown (or a listener
// error). It always returns a non-nil error; after Shutdown the error
// is http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// Shutdown gracefully stops the server, draining in-flight decisions
// for up to the configured grace period. /readyz flips to 503
// ("draining") for the duration, so load balancers stop routing here
// while in-flight decisions finish.
func (s *Server) Shutdown() error {
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), s.grace)
	defer cancel()
	return s.httpSrv.Shutdown(ctx)
}

// Run listens on addr and serves until ctx is cancelled (typically by
// signal.NotifyContext on SIGINT/SIGTERM), then drains in-flight
// requests and returns. A nil return means a clean shutdown.
func (s *Server) Run(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.log.Info("fleet server listening", "addr", l.Addr().String(),
		"databases", len(s.reg.dbs), "shards", len(s.reg.shards))
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.log.Info("fleet server draining", "grace", s.grace.String())
		if err := s.Shutdown(); err != nil {
			return err
		}
		<-errc // always http.ErrServerClosed after a clean Shutdown
		return nil
	}
}
