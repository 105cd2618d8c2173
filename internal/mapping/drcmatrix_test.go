package mapping

import (
	"math"
	"sync"
	"testing"

	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/taskgraph"
)

// randomMappings draws n valid mappings from the space.
func randomMappings(s *Space, n int, seed int64) []*Mapping {
	r := rng.New(seed)
	ms := make([]*Mapping, n)
	for i := range ms {
		ms[i] = s.Random(r)
	}
	return ms
}

func TestDRCTotalMatchesDRC(t *testing.T) {
	s := testSpace(t, 30)
	ms := randomMappings(s, 20, 17)
	for i, from := range ms {
		for j, to := range ms {
			want := s.DRC(from, to).Total()
			got := s.DRCTotal(from, to)
			if got != want {
				t.Fatalf("DRCTotal(%d,%d) = %v, DRC().Total() = %v (must be bit-identical)", i, j, want, got)
			}
		}
	}
}

func TestDRCMatrixMatchesDirect(t *testing.T) {
	s := testSpace(t, 25)
	ms := randomMappings(s, 15, 23)
	m := NewDRCMatrix(s, ms)
	if m.Len() != len(ms) {
		t.Fatalf("Len() = %d, want %d", m.Len(), len(ms))
	}
	for i := range ms {
		if d := m.Total(i, i); d != 0 {
			t.Errorf("Total(%d,%d) = %v, want 0 (nothing moves)", i, i, d)
		}
		for j := range ms {
			want := s.DRC(ms[i], ms[j]).Total()
			if got := m.Total(i, j); got != want {
				t.Fatalf("matrix entry (%d,%d) = %v, direct DRC total = %v", i, j, got, want)
			}
		}
	}
}

// TestDRCCacheConcurrent exercises the cache from many goroutines so
// `go test -race` can certify the locking; every reader must observe
// the direct value.
func TestDRCCacheConcurrent(t *testing.T) {
	s := testSpace(t, 20)
	set := randomMappings(s, 8, 37)
	cache := NewDRCCache(s, set)
	probes := randomMappings(s, 6, 41)
	want := make([]float64, len(probes))
	for i, m := range probes {
		want[i] = s.AvgDRCTo(m, set)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, m := range probes {
					if got := cache.AvgDRC(m); got != want[i] {
						t.Errorf("concurrent AvgDRC(probe %d) = %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDiffStableAcrossCalls guards the pooled-scratch rewrite of Diff:
// repeated diffs of the same pair must produce identical plans (the
// pool must never leak state between calls).
func TestDiffStableAcrossCalls(t *testing.T) {
	s := testSpace(t, 30)
	ms := randomMappings(s, 8, 43)
	for i, from := range ms {
		for j, to := range ms {
			first := s.Diff(from, to)
			again := s.Diff(from, to)
			if len(first) != len(again) {
				t.Fatalf("diff(%d,%d) length changed across calls: %d vs %d", i, j, len(first), len(again))
			}
			for k := range first {
				if first[k] != again[k] {
					t.Fatalf("diff(%d,%d) action %d changed across calls: %v vs %v", i, j, k, first[k], again[k])
				}
			}
			if i == j && first != nil {
				t.Fatalf("diff(%d,%d) of identical mappings = %v, want nil", i, j, first)
			}
		}
	}
}

// TestDRCCacheMatchesDirect pins the frozen-set dRC kernel behind
// DRCCache to the reference Space.AvgDRCTo, bit for bit, over
// thousands of probes: random mappings, the set's own members, and
// near-duplicates of members with one gene changed (where the two
// directions of dRC differ in only a few terms). It covers the
// default platform, a platform without PRRs, one that time-multiplexes
// more circuits on a single PRR than fit one bitset word, and an empty
// stored set.
func TestDRCCacheMatchesDirect(t *testing.T) {
	oneReconfigurable := func(p *platform.Platform) *platform.Platform {
		q := *p
		q.PEs = nil
		for _, pe := range p.PEs {
			if pe.PRR <= 0 {
				q.PEs = append(q.PEs, pe)
			}
		}
		q.PRRs = p.PRRs[:1]
		return &q
	}
	noPRRs := func(p *platform.Platform) *platform.Platform {
		q := *p
		q.PEs = nil
		for _, pe := range p.PEs {
			if pe.PRR < 0 {
				q.PEs = append(q.PEs, pe)
			}
		}
		q.PRRs = nil
		return &q
	}
	for _, c := range []struct {
		name    string
		plat    *platform.Platform
		gen     taskgraph.GenParams
		set     int
		setSeed int64
		words   int // bitset words per PRR the case must exercise
	}{
		{"default", platform.Default(), taskgraph.GenParams{Seed: 11, NumTasks: 25}, 10, 29, 1},
		{"no-prrs", noPRRs(platform.Default()), taskgraph.GenParams{Seed: 12, NumTasks: 25}, 10, 47, 1},
		{"one-prr-many-circuits", oneReconfigurable(platform.Default()),
			taskgraph.GenParams{Seed: 13, NumTasks: 120, NumTaskTypes: 90, AccelProb: 1}, 6, 47, 2},
		{"empty-set", platform.Default(), taskgraph.GenParams{Seed: 14, NumTasks: 25}, 0, 47, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.plat.Validate(); err != nil {
				t.Fatal(err)
			}
			g, err := taskgraph.Generate(c.gen, c.plat)
			if err != nil {
				t.Fatal(err)
			}
			s := &Space{Graph: g, Platform: c.plat, Catalogue: relmodel.DefaultCatalogue()}
			set := randomMappings(s, c.set, c.setSeed)
			probes := append(randomMappings(s, 800, 31), set...)
			r := rng.New(59)
			for _, o := range set {
				for k := 0; k < 25; k++ {
					near := o.Clone()
					tk := r.Intn(len(near.Genes))
					near.Genes[tk] = s.Random(r).Genes[tk]
					probes = append(probes, near)
				}
			}
			cache := NewDRCCache(s, set)
			if cache.set.words != c.words {
				t.Fatalf("%d bitset words per PRR, want %d", cache.set.words, c.words)
			}
			for i, m := range probes {
				want := s.AvgDRCTo(m, set)
				for rep := 0; rep < 2; rep++ { // computed, then memoised
					if got := cache.AvgDRC(m); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("AvgDRC(probe %d) = %v (%#x), AvgDRCTo = %v (%#x)",
							i, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		})
	}
}
