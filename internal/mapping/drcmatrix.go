package mapping

// Precomputed and memoised forms of the reconfiguration cost dRC.
//
// The pairwise dRC structure of a frozen database is static: once the
// design-time stage ships a set of configurations, the cost of moving
// between any two of them never changes. Both hot paths of the system
// funnel through these values — the run-time manager scores every
// feasible stored point against the current one on every QoS event,
// and the ReD stage computes average reconfiguration distances to the
// stored set inside every fitness evaluation — so this file provides
//
//   - DRCTotal: an allocation-free scalar fast path, bit-identical to
//     DRC(from, to).Total(), for callers that never look at the cost
//     decomposition;
//   - DRCMatrix: the |DB|x|DB| table of totals, precomputed once per
//     database and shared read-only by any number of managers;
//   - DRCCache: a lazily-memoised average-distance cache for
//     configurations outside the database (ReD candidates), computed
//     over tables of the frozen set that are built once.

import (
	"math/bits"
	"slices"
	"sync"
)

// drcScratch holds the per-PRR resident-bitstream work lists reused
// across DRCTotal and Diff calls, replacing the per-call map
// allocations of the full DRC path.
type drcScratch struct {
	from, to [][]int
	// bits is a per-PRR work list for newly demanded circuits (Diff).
	bits []int
}

var drcScratchPool = sync.Pool{New: func() any { return new(drcScratch) }}

func (sc *drcScratch) reset(nPRR int) {
	for len(sc.from) < nPRR {
		sc.from = append(sc.from, nil)
	}
	for len(sc.to) < nPRR {
		sc.to = append(sc.to, nil)
	}
	for i := 0; i < nPRR; i++ {
		sc.from[i] = sc.from[i][:0]
		sc.to[i] = sc.to[i][:0]
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// residentInto collects, per PRR index, the distinct bitstream IDs the
// mapping demands, appending into the caller's scratch lists. It is
// the allocation-free counterpart of residentBitstreams.
func (s *Space) residentInto(m *Mapping, res [][]int) {
	for t := range m.Genes {
		g := &m.Genes[t]
		im := &s.Graph.Tasks[t].Impls[g.Impl]
		if im.BitstreamID < 0 {
			continue
		}
		prr := s.Platform.PEs[g.PE].PRR
		if prr >= 0 && !containsInt(res[prr], im.BitstreamID) {
			res[prr] = append(res[prr], im.BitstreamID)
		}
	}
}

// DRCTotal returns DRC(from, to).Total() without materialising the
// ReconfigCost decomposition or the per-PRR resident-set maps. The
// two partial sums are accumulated in exactly the order DRC uses (the
// bitstream term adds one identical constant per newly demanded
// circuit of each PRR, so set-iteration order cannot change the
// float64 result), making the returned scalar bit-identical to the
// full path. Steady-state calls allocate nothing.
func (s *Space) DRCTotal(from, to *Mapping) float64 {
	binMs := 0.0
	for t := range to.Genes {
		gf, gt := from.Genes[t], to.Genes[t]
		if gf.PE == gt.PE && gf.Impl == gt.Impl {
			continue
		}
		im := &s.Graph.Tasks[t].Impls[gt.Impl]
		if im.BitstreamID < 0 {
			binMs += s.Platform.BinaryMigrationMs(im.BinaryKB)
		}
	}
	nPRR := len(s.Platform.PRRs)
	if nPRR == 0 {
		return binMs
	}
	sc := drcScratchPool.Get().(*drcScratch)
	sc.reset(nPRR)
	s.residentInto(from, sc.from)
	s.residentInto(to, sc.to)
	bitMs := 0.0
	for prr := 0; prr < nPRR; prr++ {
		loadMs := s.Platform.BitstreamLoadMs(s.Platform.PRRs[prr].BitstreamKB)
		for _, bs := range sc.to[prr] {
			if !containsInt(sc.from[prr], bs) {
				bitMs += loadMs
			}
		}
	}
	drcScratchPool.Put(sc)
	return binMs + bitMs
}

// DRCMatrix holds the scalar reconfiguration cost between every
// ordered pair of a frozen set of mappings — typically a deployed
// design-point database. It is built once and immutable afterwards,
// so any number of goroutines (one manager per fleet device) may read
// it without synchronisation.
type DRCMatrix struct {
	n      int
	totals []float64 // row-major: totals[from*n+to]
}

// NewDRCMatrix precomputes the |maps|^2 pairwise totals. Every entry
// is bit-identical to Space.DRC(maps[from], maps[to]).Total().
func NewDRCMatrix(s *Space, maps []*Mapping) *DRCMatrix {
	n := len(maps)
	m := &DRCMatrix{n: n, totals: make([]float64, n*n)}
	for i, from := range maps {
		row := m.totals[i*n : (i+1)*n]
		for j, to := range maps {
			if i == j {
				continue // dRC(x, x) = 0: nothing moves
			}
			row[j] = s.DRCTotal(from, to)
		}
	}
	return m
}

// Len returns the number of mappings the matrix covers.
func (m *DRCMatrix) Len() int { return m.n }

// Total returns the precomputed dRC of switching from stored point
// `from` to stored point `to`.
func (m *DRCMatrix) Total(from, to int) float64 { return m.totals[from*m.n+to] }

// DRCCache memoises average reconfiguration distances from arbitrary
// (typically out-of-database) configurations to a frozen stored set,
// keyed by the configuration's canonical Key. GAs re-evaluate cloned
// genomes every generation; the cache collapses those duplicates to
// one distance computation each, and each computation runs over
// tables of the stored set built once at construction (see drcSet).
// Safe for concurrent use.
type DRCCache struct {
	set *drcSet
	mu  sync.Mutex
	avg map[string]float64
}

// NewDRCCache builds an empty cache over the stored set. The set's
// side of every distance — bindings, resident circuits and the cost
// constants of the space — is precomputed here, so neither the set nor
// the space's graph and platform may change while the cache is in use.
func NewDRCCache(s *Space, set []*Mapping) *DRCCache {
	return &DRCCache{set: newDRCSet(s, set), avg: make(map[string]float64)}
}

// AvgDRC returns Space.AvgDRCTo(m, set), bit-identical, computing it
// at most once per distinct genome.
func (c *DRCCache) AvgDRC(m *Mapping) float64 {
	key := m.Key()
	c.mu.Lock()
	v, ok := c.avg[key]
	c.mu.Unlock()
	if ok {
		return v
	}
	v = c.set.avgDRCTo(m)
	c.mu.Lock()
	c.avg[key] = v
	c.mu.Unlock()
	return v
}

// drcSet is a frozen stored set in the form the average-distance
// kernel reads. Space.AvgDRCTo re-derives both mappings' bindings and
// resident circuits on each of its 2|set| DRCTotal calls; here the
// stored side is tabulated once, the candidate's side is tabulated
// once per call, and the per-PRR set difference of resident circuits
// is a popcount over bitsets of densely renumbered bitstream IDs.
type drcSet struct {
	n      int // stored mappings
	nTasks int
	nPRR   int
	words  int // uint64 words per PRR resident bitset
	// pePRR maps a PE ID to the PRR backing it, -1 for processors.
	pePRR []int
	// implOff[t] is the offset of task t's implementations in the
	// per-(task, impl) tables binMs and bsBit.
	implOff []int
	// binMs is the binary-migration time of a software implementation
	// and 0 for an accelerator, whose circuit is costed per PRR.
	binMs []float64
	// bsBit is an accelerator's dense bitstream index, -1 for software.
	bsBit []int
	// loadMs is the bitstream load time of each PRR.
	loadMs []float64
	// bind and bin are the stored mappings' per-task binding codes
	// (see binding) and binMs entries, row-major [mapping][task].
	bind []uint64
	bin  []float64
	// res holds the stored mappings' resident circuits, row-major
	// [mapping][PRR][word].
	res []uint64
}

// binding packs a gene's (PE, implementation) pair into one word.
func binding(g *Gene) uint64 { return uint64(g.PE)<<32 | uint64(uint32(g.Impl)) }

func newDRCSet(s *Space, set []*Mapping) *drcSet {
	plat := s.Platform
	d := &drcSet{
		n:       len(set),
		nTasks:  s.Graph.NumTasks(),
		nPRR:    len(plat.PRRs),
		pePRR:   make([]int, len(plat.PEs)),
		implOff: make([]int, s.Graph.NumTasks()),
		loadMs:  make([]float64, len(plat.PRRs)),
	}
	for i := range plat.PEs {
		d.pePRR[i] = plat.PEs[i].PRR
	}
	for prr := range plat.PRRs {
		d.loadMs[prr] = plat.BitstreamLoadMs(plat.PRRs[prr].BitstreamKB)
	}
	dense := map[int]int{}
	for t := range s.Graph.Tasks {
		d.implOff[t] = len(d.bsBit)
		for i := range s.Graph.Tasks[t].Impls {
			im := &s.Graph.Tasks[t].Impls[i]
			bit, ms := -1, 0.0
			if im.BitstreamID < 0 {
				ms = plat.BinaryMigrationMs(im.BinaryKB)
			} else if b, ok := dense[im.BitstreamID]; ok {
				bit = b
			} else {
				bit = len(dense)
				dense[im.BitstreamID] = bit
			}
			d.binMs = append(d.binMs, ms)
			d.bsBit = append(d.bsBit, bit)
		}
	}
	d.words = (len(dense) + 63) / 64
	d.bind = make([]uint64, d.n*d.nTasks)
	d.bin = make([]float64, d.n*d.nTasks)
	d.res = make([]uint64, d.n*d.nPRR*d.words)
	for i, o := range set {
		d.tabulate(o, d.bind[i*d.nTasks:(i+1)*d.nTasks], d.bin[i*d.nTasks:(i+1)*d.nTasks],
			d.res[i*d.nPRR*d.words:(i+1)*d.nPRR*d.words])
	}
	return d
}

// tabulate fills one mapping's binding codes, binary-migration terms
// and per-PRR resident-circuit bits. res must be zeroed.
func (d *drcSet) tabulate(m *Mapping, bind []uint64, bin []float64, res []uint64) {
	for t := range m.Genes {
		g := &m.Genes[t]
		k := d.implOff[t] + g.Impl
		bind[t], bin[t] = binding(g), d.binMs[k]
		if bit := d.bsBit[k]; bit >= 0 {
			if prr := d.pePRR[g.PE]; prr >= 0 {
				res[prr*d.words+bit/64] |= 1 << (bit % 64)
			}
		}
	}
}

// avgDRCTo returns Space.AvgDRCTo(m, set) bit for bit. Both directions
// of each stored mapping o are summed in one pass, but each direction
// keeps DRCTotal's own float64 order: binary migrations per task in ID
// order, then one load time per newly demanded circuit per PRR in
// index order (within a PRR every term is the same constant, so only
// the count matters), then binary + bitstream. An accelerator task
// adds binMs 0 where DRCTotal adds nothing; x + 0 == x for every sum
// that can arise here (none is -0), so the extra terms change no bit.
// The pair then enters the running sum exactly as in AvgDRCTo:
// sum += dRC(m,o) + dRC(o,m).
func (d *drcSet) avgDRCTo(m *Mapping) float64 {
	if d.n == 0 {
		return 0
	}
	nT, stride := d.nTasks, d.nPRR*d.words
	sc := candScratchPool.Get().(*candScratch)
	defer candScratchPool.Put(sc)
	sc.bind = slices.Grow(sc.bind[:0], nT)[:nT]
	sc.bin = slices.Grow(sc.bin[:0], nT)[:nT]
	sc.res = slices.Grow(sc.res[:0], stride)[:stride]
	clear(sc.res)
	bind, bin, res := sc.bind, sc.bin, sc.res
	d.tabulate(m, bind, bin, res)
	sum := 0.0
	for i := 0; i < d.n; i++ {
		obind := d.bind[i*nT : (i+1)*nT]
		obin := d.bin[i*nT : (i+1)*nT]
		binMO, binOM := 0.0, 0.0 // m->o migrates o's binaries, o->m m's
		for t, b := range bind {
			if b != obind[t] {
				binMO += obin[t]
				binOM += bin[t]
			}
		}
		ores := d.res[i*stride : (i+1)*stride]
		bitMO, bitOM := 0.0, 0.0
		for prr := 0; prr < d.nPRR; prr++ {
			loadsMO, loadsOM := 0, 0
			for w := prr * d.words; w < (prr+1)*d.words; w++ {
				loadsMO += bits.OnesCount64(ores[w] &^ res[w])
				loadsOM += bits.OnesCount64(res[w] &^ ores[w])
			}
			for ; loadsMO > 0; loadsMO-- {
				bitMO += d.loadMs[prr]
			}
			for ; loadsOM > 0; loadsOM-- {
				bitOM += d.loadMs[prr]
			}
		}
		sum += (binMO + bitMO) + (binOM + bitOM)
	}
	return sum / float64(2*d.n)
}

// candScratch holds a candidate's tabulated side for avgDRCTo. It is
// pooled rather than stack-allocated: ReD evaluates on short-lived GA
// goroutines, where a large frame costs a stack copy per goroutine.
type candScratch struct {
	bind []uint64
	bin  []float64
	res  []uint64
}

var candScratchPool = sync.Pool{New: func() any { return new(candScratch) }}
