package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"

	"clrdse/internal/dse"
	"clrdse/internal/runtime"
)

// versioned returns a shallow copy of db stamped with version v, so
// fixture databases can be proposed as candidates without mutating the
// shared fixture.
func versioned(db *dse.Database, v uint64) *dse.Database {
	cp := *db
	cp.Version = v
	return &cp
}

func TestEvolveLifecycle(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}

	// Version must advance: the active database is version 0.
	if err := reg.ProposeDatabase("red", versioned(f.base, 0)); !errors.Is(err, ErrCandidateVersion) {
		t.Errorf("propose v0 over v0: %v, want ErrCandidateVersion", err)
	}
	if err := reg.ProposeDatabase("nope", versioned(f.base, 1)); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("propose to unknown cohort: %v, want ErrNoDatabase", err)
	}
	if err := reg.CutoverDatabase("red"); !errors.Is(err, ErrNoCandidate) {
		t.Errorf("cutover without candidate: %v, want ErrNoCandidate", err)
	}
	if err := reg.RollbackDatabase("red"); !errors.Is(err, ErrNoPrevious) {
		t.Errorf("rollback without previous: %v, want ErrNoPrevious", err)
	}

	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	st, err := reg.EvolveStatus("red")
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasCandidate || st.CandidateVersion != 1 || st.CandidatePoints != f.base.Len() {
		t.Errorf("after propose: %+v", st)
	}
	if st.ActiveVersion != 0 {
		t.Errorf("propose must not touch the active version, got %d", st.ActiveVersion)
	}

	if err := reg.DropCandidate("red"); err != nil {
		t.Fatal(err)
	}
	if st, _ = reg.EvolveStatus("red"); st.HasCandidate {
		t.Error("candidate survived DropCandidate")
	}
	if err := reg.DropCandidate("red"); !errors.Is(err, ErrNoCandidate) {
		t.Errorf("double drop: %v, want ErrNoCandidate", err)
	}

	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}
	st, _ = reg.EvolveStatus("red")
	if st.ActiveVersion != 1 || st.HasCandidate || !st.HasPrevious || st.PreviousVersion != 0 {
		t.Errorf("after cutover: %+v", st)
	}
	if db, err := reg.ActiveDatabase("red"); err != nil || db.Version != 1 {
		t.Errorf("ActiveDatabase after cutover: v%d, %v", db.Version, err)
	}

	if err := reg.RollbackDatabase("red"); err != nil {
		t.Fatal(err)
	}
	st, _ = reg.EvolveStatus("red")
	if st.ActiveVersion != 0 || st.HasPrevious {
		t.Errorf("after rollback: %+v", st)
	}
	// Rollback is one-step.
	if err := reg.RollbackDatabase("red"); !errors.Is(err, ErrNoPrevious) {
		t.Errorf("second rollback: %v, want ErrNoPrevious", err)
	}
}

func TestShadowWindowAccounting(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(DeviceParams{
		ID: "shadow-1", Database: "red", PRC: 0.5,
		Trigger: runtime.TriggerAlways, Initial: looseSpec(f.red),
	}); err != nil {
		t.Fatal(err)
	}
	script := deviceScript(f.red, 301, 30)

	// Pre-propose decisions must not be shadow-scored.
	for _, spec := range script[:10] {
		if _, err := reg.Decide("shadow-1", spec); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := reg.EvolveStatus("red"); st.ShadowEvents != 0 {
		t.Fatalf("shadow events before any candidate: %d", st.ShadowEvents)
	}

	// The stage-1 database as candidate: a genuinely different point
	// set, so divergences are possible and must be accounted.
	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	for _, spec := range script[10:] {
		if _, err := reg.Decide("shadow-1", spec); err != nil {
			t.Fatal(err)
		}
	}
	st, err := reg.EvolveStatus("red")
	if err != nil {
		t.Fatal(err)
	}
	if st.ShadowEvents != 20 {
		t.Errorf("shadow events = %d, want 20", st.ShadowEvents)
	}
	if st.Agreements+st.Divergences != st.ShadowEvents {
		t.Errorf("agreements %d + divergences %d != events %d", st.Agreements, st.Divergences, st.ShadowEvents)
	}
	if want := float64(st.Agreements) / float64(st.ShadowEvents); st.Agreement != want {
		t.Errorf("agreement = %v, want %v", st.Agreement, want)
	}
	if uint64(len(st.Samples)) > st.Divergences || len(st.Samples) > maxDivergenceSamples {
		t.Errorf("%d samples for %d divergences", len(st.Samples), st.Divergences)
	}
	for _, s := range st.Samples {
		if s.Device != "shadow-1" || s.ActiveVersion != 0 || s.ShadowVersion != 1 {
			t.Errorf("bad divergence sample: %+v", s)
		}
	}

	// Serving stayed on the active version throughout the window.
	for _, e := range reg.Decisions("shadow-1", 0) {
		if e.DBVersion != 0 {
			t.Errorf("seq %d journaled against v%d during shadow window", e.Seq, e.DBVersion)
		}
	}

	// Re-proposing resets the window.
	if err := reg.ProposeDatabase("red", versioned(f.base, 2)); err != nil {
		t.Fatal(err)
	}
	if st, _ = reg.EvolveStatus("red"); st.ShadowEvents != 0 || st.CandidateVersion != 2 {
		t.Errorf("window not reset on re-propose: %+v", st)
	}
}

// TestCutoverPreservesPreSwapDecisions is the tentpole's byte-identity
// claim: decisions made before a cutover — including the whole shadow
// window — must be byte-identical to a frozen-database reference run,
// the replay cache must answer pre-swap retries identically after the
// swap, and a rollback must restore the pre-cutover serving state.
func TestCutoverPreservesPreSwapDecisions(t *testing.T) {
	f := getFixture(t)
	const preN, shadowN, postN, tailN = 12, 12, 8, 8
	script := deviceScript(f.red, 77, preN+shadowN+postN+tailN)
	params := DeviceParams{
		ID: "dev-swap", Database: "red", PRC: 0.5,
		Trigger: runtime.TriggerOnViolation, Gamma: 0.8, Initial: looseSpec(f.red),
	}

	// Frozen reference: no evolution, same script.
	ref, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Register(params); err != nil {
		t.Fatal(err)
	}
	var refKeys []string
	for i, spec := range script {
		out, err := ref.DecideCtx(context.Background(), "dev-swap", uint64(i+1), spec)
		if err != nil {
			t.Fatal(err)
		}
		refKeys = append(refKeys, decisionKey(t, out.Decision))
	}

	// Evolving run: propose after preN, cut over after preN+shadowN,
	// roll back after postN more.
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(params); err != nil {
		t.Fatal(err)
	}
	decide := func(i int) DecideOutcome {
		t.Helper()
		out, err := reg.DecideCtx(context.Background(), "dev-swap", uint64(i+1), script[i])
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var keys []string
	for i := 0; i < preN; i++ {
		keys = append(keys, decisionKey(t, decide(i).Decision))
	}
	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	for i := preN; i < preN+shadowN; i++ {
		keys = append(keys, decisionKey(t, decide(i).Decision))
	}
	for i, k := range keys {
		if k != refKeys[i] {
			t.Fatalf("pre-swap decision %d diverged from frozen reference:\n  got  %s\n  want %s", i, k, refKeys[i])
		}
	}
	preSwapLast := keys[len(keys)-1]

	if err := reg.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}

	// Exactly-once across the swap: a retry of the last pre-swap
	// sequence number must replay the original (old-version) decision
	// byte-for-byte, even though the cohort is now on version 1.
	retry, err := reg.DecideCtx(context.Background(), "dev-swap", uint64(preN+shadowN), script[preN+shadowN-1])
	if err != nil {
		t.Fatal(err)
	}
	if !retry.Replayed {
		t.Error("pre-swap retry after cutover was re-decided, want replay")
	}
	if got := decisionKey(t, retry.Decision); got != preSwapLast {
		t.Errorf("replayed decision changed across cutover:\n  got  %s\n  want %s", got, preSwapLast)
	}

	// Post-cutover decisions serve — and journal — version 1.
	for i := preN + shadowN; i < preN+shadowN+postN; i++ {
		if out := decide(i); out.Degraded || out.Replayed {
			t.Fatalf("event %d: degraded=%v replayed=%v after cutover", i, out.Degraded, out.Replayed)
		}
	}
	entries := reg.Decisions("dev-swap", 0)
	var v0, v1 int
	for _, e := range entries {
		switch e.DBVersion {
		case 0:
			v0++
		case 1:
			v1++
		default:
			t.Fatalf("journal entry at unexpected version %d", e.DBVersion)
		}
	}
	if v1 != postN {
		t.Errorf("journal holds %d v1 entries, want %d", v1, postN)
	}

	if err := reg.RollbackDatabase("red"); err != nil {
		t.Fatal(err)
	}
	// Post-rollback the device resumes its retained pre-cutover manager
	// and serves version 0 again.
	for i := preN + shadowN + postN; i < len(script); i++ {
		if out := decide(i); out.Degraded {
			t.Fatalf("event %d degraded after rollback", i)
		}
	}
	tail := reg.Decisions("dev-swap", tailN)
	for _, e := range tail {
		if e.DBVersion != 0 {
			t.Errorf("seq %d journaled against v%d after rollback, want 0", e.Seq, e.DBVersion)
		}
	}
	if got, err := reg.Get("dev-swap"); err != nil || got.Stats.Decisions != int64(len(script)) {
		t.Errorf("device lost decisions across swap cycle: %+v, %v", got, err)
	}
}

// TestDeviceRegisteredDuringShadowWindow: a device registered while a
// candidate is installed must grow its shadow manager lazily and be
// counted in the window.
func TestDeviceRegisteredDuringShadowWindow(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(DeviceParams{
		ID: "late-1", Database: "red", PRC: 0.5,
		Trigger: runtime.TriggerAlways, Initial: looseSpec(f.red),
	}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range deviceScript(f.red, 55, 10) {
		if _, err := reg.Decide("late-1", spec); err != nil {
			t.Fatal(err)
		}
	}
	st, err := reg.EvolveStatus("red")
	if err != nil {
		t.Fatal(err)
	}
	if st.ShadowEvents != 10 {
		t.Errorf("late device contributed %d shadow events, want 10", st.ShadowEvents)
	}
}

// TestCohortsEvolveIndependently: a cutover on one cohort must not
// move devices of another.
func TestCohortsEvolveIndependently(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []DeviceParams{
		{ID: "red-1", Database: "red", PRC: 0.5, Initial: looseSpec(f.red)},
		{ID: "based-1", Database: "based", PRC: 0.5, Initial: looseSpec(f.base)},
	} {
		if _, err := reg.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"red-1", "based-1"} {
		if _, err := reg.Decide(id, looseSpec(f.red)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range reg.Decisions("based-1", 0) {
		if e.DBVersion != 0 {
			t.Errorf("based cohort served v%d after red's cutover", e.DBVersion)
		}
	}
	for _, e := range reg.Decisions("red-1", 0) {
		if e.DBVersion != 1 {
			t.Errorf("red cohort served v%d after its cutover, want 1", e.DBVersion)
		}
	}
	if st, _ := reg.EvolveStatus("based"); st.ActiveVersion != 0 || st.HasCandidate || st.HasPrevious {
		t.Errorf("based cohort state disturbed: %+v", st)
	}
}

// TestHandoffRacesCutover is the cluster-consistency satellite: a
// device exported mid-shadow-window imports cleanly on a peer at the
// same active version (candidate and all), a bundle exported after a
// cutover the peer has not performed is rejected with ErrVersionSkew,
// and no sequence is ever answered twice across the move.
func TestHandoffRacesCutover(t *testing.T) {
	f := getFixture(t)
	regA, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	regB, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	params := DeviceParams{
		ID: "mover", Database: "red", PRC: 0.5,
		Trigger: runtime.TriggerOnViolation, Initial: looseSpec(f.red),
	}
	if _, err := regA.Register(params); err != nil {
		t.Fatal(err)
	}
	script := deviceScript(f.red, 909, 30)

	// Both nodes install the same candidate; A serves into the shadow
	// window, then exports mid-window.
	for _, reg := range []*Registry{regA, regB} {
		if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var last DecideOutcome
	for i := 0; i < 10; i++ {
		if last, err = regA.DecideCtx(context.Background(), "mover", uint64(i+1), script[i]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := regA.ExportRemove("mover")
	if err != nil {
		t.Fatal(err)
	}
	if st.DBVersion != 0 {
		t.Fatalf("mid-window bundle at v%d, want active v0", st.DBVersion)
	}
	if err := regB.ImportDevice(st); err != nil {
		t.Fatal(err)
	}

	// Exactly-once across the move: the exporter's last answered
	// sequence replays byte-identically on the importer.
	retry, err := regB.DecideCtx(context.Background(), "mover", 10, script[9])
	if err != nil {
		t.Fatal(err)
	}
	if !retry.Replayed {
		t.Error("imported device re-decided an already-answered sequence")
	}
	if got, want := decisionKey(t, retry.Decision), decisionKey(t, last.Decision); got != want {
		t.Errorf("replay across handoff changed:\n  got  %s\n  want %s", got, want)
	}

	// The imported device keeps feeding B's shadow window.
	before, _ := regB.EvolveStatus("red")
	for i := 10; i < 20; i++ {
		if _, err := regB.DecideCtx(context.Background(), "mover", uint64(i+1), script[i]); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := regB.EvolveStatus("red")
	if after.ShadowEvents != before.ShadowEvents+10 {
		t.Errorf("imported device fed %d shadow events, want 10", after.ShadowEvents-before.ShadowEvents)
	}

	// B cuts over; A does not. A bundle exported from B (v1) must be
	// rejected by A (active v0) with ErrVersionSkew — and the failed
	// import must not leak a device.
	if err := regB.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.DecideCtx(context.Background(), "mover", 21, script[20]); err != nil {
		t.Fatal(err)
	}
	stB, err := regB.ExportRemove("mover")
	if err != nil {
		t.Fatal(err)
	}
	if stB.DBVersion != 1 {
		t.Fatalf("post-cutover bundle at v%d, want 1", stB.DBVersion)
	}
	if err := regA.ImportDevice(stB); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("import of v1 bundle on v0 node: %v, want ErrVersionSkew", err)
	}
	if regA.Has("mover") {
		t.Error("rejected import leaked a device")
	}

	// Once A cuts over too, the same bundle imports and serving
	// resumes at the bundle's sequence horizon.
	if err := regA.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}
	if err := regA.ImportDevice(stB); err != nil {
		t.Fatal(err)
	}
	if _, err := regA.DecideCtx(context.Background(), "mover", 21, script[20]); err != nil {
		t.Fatal(err)
	}
	if _, err := regA.DecideCtx(context.Background(), "mover", 20, script[19]); !errors.Is(err, ErrStaleSeq) {
		t.Errorf("stale pre-handoff sequence re-answered after import: %v, want ErrStaleSeq", err)
	}
	out, err := regA.DecideCtx(context.Background(), "mover", 22, script[21])
	if err != nil || out.Degraded {
		t.Fatalf("fresh decision after versioned handoff: %+v, %v", out, err)
	}
	// The adopted journal keeps the device's cross-version history
	// (v0 then v1); decisions made after the import are at v1.
	for _, e := range regA.Decisions("mover", 0) {
		want := uint64(1)
		if e.Seq <= 20 {
			want = 0 // decided before B's cutover
		}
		if e.DBVersion != want {
			t.Errorf("seq %d journaled at v%d, want v%d", e.Seq, e.DBVersion, want)
		}
	}
}

// TestEvolveMetricsRegistered: the evolve counters and gauges must be
// present (and correctly named) in the metrics export.
func TestEvolveMetricsRegistered(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}
	if err := reg.RollbackDatabase("red"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.Metrics().WritePrometheus(&sb)
	dump := sb.String()
	for _, name := range []string{
		"clr_evolve_proposals_total",
		"clr_evolve_cutovers_total",
		"clr_evolve_adoptions_total",
		"clr_evolve_rollbacks_total",
		"clr_evolve_candidates_dropped_total",
		"clr_evolve_shadow_events_total",
		"clr_evolve_shadow_agreements_total",
		"clr_evolve_shadow_divergences_total",
		"clr_evolve_active_version",
		"clr_evolve_candidate_version",
	} {
		if !strings.Contains(dump, name) {
			t.Errorf("metric %s missing from export", name)
		}
	}
}

// TestExportSyncsToActiveVersion: devices converge onto a new active
// version lazily, on their next decision — so a device that never
// decides after a cutover would export a bundle stamped with the
// displaced version, which neither the importing peer nor this node's
// own re-import fallback could accept, dropping the device's state.
// The export path must converge the device first.
func TestExportSyncsToActiveVersion(t *testing.T) {
	f := getFixture(t)
	regA, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	regB, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	params := DeviceParams{
		ID: "lagger", Database: "red", PRC: 0.5,
		Trigger: runtime.TriggerOnViolation, Initial: looseSpec(f.red),
	}
	if _, err := regA.Register(params); err != nil {
		t.Fatal(err)
	}
	script := deviceScript(f.red, 515, 12)
	var last DecideOutcome
	for i := 0; i < 10; i++ {
		if last, err = regA.DecideCtx(context.Background(), "lagger", uint64(i+1), script[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Both nodes cut over to the same v1; the device never decides
	// again on A, so only the export path can converge it.
	for _, reg := range []*Registry{regA, regB} {
		if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
			t.Fatal(err)
		}
		if err := reg.CutoverDatabase("red"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := regA.ExportRemove("lagger")
	if err != nil {
		t.Fatal(err)
	}
	if st.DBVersion != 1 {
		t.Fatalf("post-cutover export stamped v%d, want active v1", st.DBVersion)
	}
	if st.DBFingerprint == 0 {
		t.Fatal("export carries no database fingerprint")
	}
	if err := regB.ImportDevice(st); err != nil {
		t.Fatalf("converged bundle rejected (device state would be dropped): %v", err)
	}

	// Exactly-once across the cutover-then-handoff: the pre-cutover
	// replay answer is preserved byte-identically, and serving resumes.
	retry, err := regB.DecideCtx(context.Background(), "lagger", 10, script[9])
	if err != nil {
		t.Fatal(err)
	}
	if !retry.Replayed {
		t.Error("imported device re-decided an already-answered sequence")
	}
	if got, want := decisionKey(t, retry.Decision), decisionKey(t, last.Decision); got != want {
		t.Errorf("replay across versioned handoff changed:\n  got  %s\n  want %s", got, want)
	}
	out, err := regB.DecideCtx(context.Background(), "lagger", 11, script[10])
	if err != nil || out.Degraded {
		t.Fatalf("fresh decision after converged handoff: %+v, %v", out, err)
	}
}

// TestImportRejectsDivergentSameVersion: each node's evolve worker
// proposes from its node-local journal, so two nodes can legitimately
// hold different databases both numbered active+1. A version-number
// check alone would accept a bundle whose point IDs refer to a
// different database; the content fingerprint must reject it.
func TestImportRejectsDivergentSameVersion(t *testing.T) {
	f := getFixture(t)
	regA, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	regB, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	// A evolves "red" to v1 with the stage-1 point set; B evolves it to
	// v1 with the original red point set: same number, divergent bytes.
	if err := regA.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	if err := regA.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}
	if err := regB.ProposeDatabase("red", versioned(f.red, 1)); err != nil {
		t.Fatal(err)
	}
	if err := regB.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}

	if _, err := regA.Register(DeviceParams{
		ID: "div", Database: "red", PRC: 0.5,
		Trigger: runtime.TriggerOnViolation, Initial: looseSpec(f.base),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := regA.DecideCtx(context.Background(), "div", 1, looseSpec(f.base)); err != nil {
		t.Fatal(err)
	}
	st, err := regA.ExportRemove("div")
	if err != nil {
		t.Fatal(err)
	}
	if err := regB.ImportDevice(st); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("import of divergent same-version bundle: %v, want ErrVersionSkew", err)
	}
	if regB.Has("div") {
		t.Error("rejected import leaked a device")
	}
}

// TestAdoptDatabase pins the cluster catch-up primitive: an immediate
// install of a peer's exact database — dropping any local candidate,
// retaining the displaced version for rollback — with idempotent
// re-adoption and a refusal to move backwards.
func TestAdoptDatabase(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(DeviceParams{
		ID: "adoptee", Database: "red", PRC: 0.5,
		Trigger: runtime.TriggerOnViolation, Initial: looseSpec(f.red),
	}); err != nil {
		t.Fatal(err)
	}
	boot, err := reg.EvolveStatus("red")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.AdoptDatabase("nope", versioned(f.base, 2)); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("adopt into unknown cohort: %v, want ErrNoDatabase", err)
	}

	// Adoption while a candidate is installed drops the candidate: its
	// shadow window judged a proposal the cluster has overtaken.
	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.AdoptDatabase("red", versioned(f.base, 2)); err != nil {
		t.Fatal(err)
	}
	st, err := reg.EvolveStatus("red")
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveVersion != 2 || st.HasCandidate || !st.HasPrevious || st.PreviousVersion != 0 {
		t.Fatalf("post-adopt status = %+v, want active v2, no candidate, previous v0", st)
	}

	// Re-adopting the active database is an idempotent no-op; adopting
	// an older version is an error.
	before := reg.evolveAdoptions.Value()
	if err := reg.AdoptDatabase("red", versioned(f.base, 2)); err != nil {
		t.Fatalf("re-adopt of the active database: %v", err)
	}
	if got := reg.evolveAdoptions.Value(); got != before {
		t.Errorf("no-op re-adopt counted: %d -> %d", before, got)
	}
	if err := reg.AdoptDatabase("red", versioned(f.base, 1)); !errors.Is(err, ErrCandidateVersion) {
		t.Errorf("adopt behind active: %v, want ErrCandidateVersion", err)
	}

	// Equal version, different content: the larger content fingerprint
	// wins the divergent-cutover tiebreak and is installed; the loser is
	// refused, so every node converges on the same database.
	if !(Stamp{2, boot.ActiveFingerprint}).Beats(Stamp{2, st.ActiveFingerprint}) {
		t.Fatal("fixture's red database no longer beats base on fingerprint; tiebreak step is vacuous")
	}
	if err := reg.AdoptDatabase("red", versioned(f.red, 2)); err != nil {
		t.Fatalf("adopt of same-version winning database: %v", err)
	}
	st2, _ := reg.EvolveStatus("red")
	if st2.ActiveVersion != 2 || st2.ActiveFingerprint == st.ActiveFingerprint {
		t.Fatalf("divergent adopt did not change content: %+v vs %+v", st2, st)
	}
	if err := reg.AdoptDatabase("red", versioned(f.base, 2)); !errors.Is(err, ErrCandidateVersion) {
		t.Errorf("adopt of same-version losing database: %v, want ErrCandidateVersion", err)
	}

	// Devices converge lazily onto the adopted version, exactly as
	// after a cutover.
	out, err := reg.DecideCtx(context.Background(), "adoptee", 1, looseSpec(f.red))
	if err != nil || out.Degraded {
		t.Fatalf("decision after adopt: %+v, %v", out, err)
	}
	for _, e := range reg.Decisions("adoptee", 0) {
		if e.DBVersion != 2 {
			t.Errorf("post-adopt decision journaled at v%d, want v2", e.DBVersion)
		}
	}

	// The displaced version is retained for one-step rollback.
	if err := reg.RollbackDatabase("red"); err != nil {
		t.Fatal(err)
	}
	st3, _ := reg.EvolveStatus("red")
	if st3.ActiveVersion != 2 || st3.ActiveFingerprint != st.ActiveFingerprint {
		t.Fatalf("rollback after adopt: %+v, want the previously adopted v2", st3)
	}
}

// TestStaleShadowScoreDoesNotPolluteWindow: a shadow score computed
// against a candidate that a concurrent re-propose has replaced must
// not count into the new candidate's freshly started window. The
// window object is keyed to its candidate, so the stale score's counts
// land in the discarded window (or nowhere), never in the fresh one.
func TestStaleShadowScoreDoesNotPolluteWindow(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(DeviceParams{
		ID: "stale", Database: "red", PRC: 0.5,
		Trigger: runtime.TriggerAlways, Initial: looseSpec(f.red),
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.ProposeDatabase("red", versioned(f.base, 1)); err != nil {
		t.Fatal(err)
	}
	script := deviceScript(f.red, 606, 6)
	for i, spec := range script[:5] {
		if _, err := reg.DecideCtx(context.Background(), "stale", uint64(i+1), spec); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := reg.EvolveStatus("red"); st.ShadowEvents != 5 {
		t.Fatalf("v1 window has %d events, want 5", st.ShadowEvents)
	}

	// Replace the candidate. The device still holds its v1 shadow
	// manager (it has not decided since), which is exactly the state of
	// a decision in flight across the re-propose.
	if err := reg.ProposeDatabase("red", versioned(f.base, 2)); err != nil {
		t.Fatal(err)
	}
	d, err := reg.lookup("stale")
	if err != nil {
		t.Fatal(err)
	}
	d.sem <- struct{}{}
	cur := d.mgr.Load().Current()
	reg.shadowScore(d, 99, script[5], runtime.Decision{From: cur, To: cur})
	d.release()
	if st, _ := reg.EvolveStatus("red"); st.ShadowEvents != 0 {
		t.Fatalf("stale score polluted the fresh window: %d events, want 0", st.ShadowEvents)
	}
}
