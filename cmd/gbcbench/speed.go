package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// Timing on a shared machine. On the machine the benchmark was built on,
// other tenants share the cores and their caches, and the same code runs
// up to 4x slower than on a quiet machine, changing from one second to the
// next and from one minute to the next — far more than an end-to-end
// bound may allow. So every time the benchmark reports as an end-to-end metric
// is scaled to a fixed machine speed: next to the work it measures, the
// benchmark times a reference kernel of its own, and multiplies each
// measured time by refNominal over the kernel time measured beside it.
// The kernel is breadth-first search over fixed random graphs, one search
// per core run at once: first over a big graph (5.5 MB, bigger than L2,
// inside the last-level cache), then over a small one (0.7 MB, inside L2);
// the kernel time is the geometric mean of the two. Every workload keeps
// both cores busy — solve-mix grows samples on both; gbcd runs two solves
// at once beside its HTTP handling, the load client and the garbage
// collector — over graphs from well inside L2 to about the big graph's
// size, and a co-tenant that slows one core or the shared cache shows in
// the kernel as in the work. Logs of solves and requests interleaved with
// candidate kernels (big or small, one search or one per core, both,
// arithmetic) picked this shape: kernels on one core missed slowdowns of
// the serving workloads by half. The kernel only runs when nothing else
// does — between two solves, between two segments of a serving window —
// since it slows down whatever runs beside it. It is the benchmark's own
// code: no change to the program moves it, so a change that makes gbc
// slower shows in full.

const (
	refDegree = 8
	// bigNodes and smallNodes size the kernel graphs: about 5.5 MB and
	// 0.7 MB of arrays. A small search runs smallRepeats times, so that it
	// takes about as long as a big one.
	bigNodes     = 1 << 17
	smallNodes   = 1 << 14
	smallRepeats = 16
	// refNominal is about the kernel's time on a quiet machine of the kind
	// the benchmark was built on (2 cores). A scaled time is the measured
	// time converted to that speed.
	refNominal = 7500 * time.Microsecond
	// refAnchors is how many kernel times a serving window takes between
	// two segments; their median is the machine's speed there.
	refAnchors = 3
)

// refKernel is the reference kernel: its parts (big searches, then small
// ones) run one after the other; the searches of a part run at once, one
// goroutine each. A kernel is used by one goroutine at a time.
type refKernel struct {
	parts        [][]*refSearch
	measurements []time.Duration   // every kernel time, for bench.ref_kernel_ms
	partTimes    [][]time.Duration // every time of each part, printed beside it
}

// refSearch is breadth-first search from rotating sources over a random
// graph with refDegree out-edges per node, built from a fixed seed, run
// repeats times in a row.
type refSearch struct {
	off, adj    []int32
	dist, queue []int32
	repeats     int
	calls       int
}

// newRefKernel builds the kernel for searches cores.
func newRefKernel(searches int) *refKernel {
	return &refKernel{
		parts: [][]*refSearch{
			refSearches(bigNodes, 1, searches),
			refSearches(smallNodes, smallRepeats, searches),
		},
		partTimes: make([][]time.Duration, 2),
	}
}

func refSearches(nodes, repeats, n int) []*refSearch {
	var ss []*refSearch
	for i := 0; i < n; i++ {
		ss = append(ss, newRefSearch(nodes, repeats, uint64(i)+1))
	}
	return ss
}

func newRefSearch(nodes, repeats int, seed uint64) *refSearch {
	s := &refSearch{
		off:     make([]int32, nodes+1),
		adj:     make([]int32, nodes*refDegree),
		dist:    make([]int32, nodes),
		queue:   make([]int32, 0, nodes),
		repeats: repeats,
	}
	x := seed * 0x9e3779b97f4a7c15
	for v := 0; v < nodes; v++ {
		s.off[v+1] = int32((v + 1) * refDegree)
		for e := 0; e < refDegree; e++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s.adj[v*refDegree+e] = int32(x % uint64(nodes))
		}
	}
	return s
}

func (s *refSearch) run() {
	for r := 0; r < s.repeats; r++ {
		src := int32(s.calls * 7919 % len(s.dist))
		s.calls++
		for i := range s.dist {
			s.dist[i] = -1
		}
		s.dist[src] = 0
		q := append(s.queue[:0], src)
		for h := 0; h < len(q); h++ {
			u := q[h]
			for _, w := range s.adj[s.off[u]:s.off[u+1]] {
				if s.dist[w] < 0 {
					s.dist[w] = s.dist[u] + 1
					q = append(q, w)
				}
			}
		}
	}
}

// time runs the parts, each part's searches one goroutine each, and
// returns the geometric mean of the parts' times.
func (k *refKernel) time() time.Duration {
	logSum := 0.0
	for i, part := range k.parts {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, s := range part {
			wg.Add(1)
			go func(s *refSearch) {
				defer wg.Done()
				s.run()
			}(s)
		}
		wg.Wait()
		d := time.Since(t0)
		k.partTimes[i] = append(k.partTimes[i], d)
		logSum += math.Log(float64(d))
	}
	d := time.Duration(math.Exp(logSum / float64(len(k.parts))))
	k.measurements = append(k.measurements, d)
	return d
}

// anchor times the kernel refAnchors times and returns the median.
func (k *refKernel) anchor() time.Duration {
	took := make([]float64, refAnchors)
	for i := range took {
		took[i] = float64(k.time())
	}
	return time.Duration(median(took))
}

// medianMs is the median of every kernel time taken so far, in ms.
func (k *refKernel) medianMs() float64 { return medianMs(k.measurements) }

// String gives the kernel's median time and its parts' for a run's notes.
func (k *refKernel) String() string {
	return fmt.Sprintf("reference kernel median %.2f ms (big %.2f, small %.2f) over %d times (nominal %v)",
		k.medianMs(), medianMs(k.partTimes[0]), medianMs(k.partTimes[1]), len(k.measurements), refNominal)
}

func medianMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// atNominal converts d, measured beside a kernel time ref, to nominal
// machine speed.
func atNominal(d, ref time.Duration) time.Duration {
	if ref <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(refNominal) / float64(ref))
}

// timeSetup runs one set-up repetition, after a garbage collection so that
// every repetition starts from a like heap, and returns its time as
// measured and scaled by the kernel times just before and after it.
func timeSetup(k *refKernel, setup func() error) (raw, scaled time.Duration, err error) {
	runtime.GC()
	before := k.time()
	t0 := time.Now()
	err = setup()
	raw = time.Since(t0)
	return raw, atNominal(raw, (before+k.time())/2), err
}
