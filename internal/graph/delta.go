// Edge deltas: the mutation primitive behind graph versioning. A Graph is
// immutable; applying a Delta produces a brand-new Graph sharing nothing
// mutable with the original, so in-flight readers of the old version are
// never disturbed (the serving layer refcounts versions and retires old
// ones once their last reader finishes).
//
// Deltas are edge-only by design: the sampling layer's per-index RNG
// streams draw node pairs with IntnPair(n), so a change to the node count
// would invalidate every existing sample and make incremental repair
// (sampling.Set.Repair) impossible. Within a fixed node universe, an edge
// delta perturbs only the samples whose observed BFS region touches a
// delta endpoint — the property repair exploits.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// DeltaEdge is one edge of a Delta. For directed graphs it is the edge
// U→V; for undirected graphs the unordered edge {U, V}. W is the weight of
// an inserted edge on a weighted graph; it must be zero for unweighted
// graphs and for deletions (a deletion removes the edge whatever its
// weight).
type DeltaEdge struct {
	U, V int32
	W    float64
}

// Delta is a batch of edge insertions and deletions applied atomically by
// ApplyDelta. The zero Delta is valid and empty.
type Delta struct {
	Insert []DeltaEdge
	Delete []DeltaEdge
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool { return len(d.Insert) == 0 && len(d.Delete) == 0 }

// Size returns the number of edge operations in the delta.
func (d *Delta) Size() int { return len(d.Insert) + len(d.Delete) }

// Touched returns the sorted distinct endpoints of every edge in the
// delta — the seed set of the repair layer's distance check.
func (d *Delta) Touched() []int32 {
	nodes := make([]int32, 0, 2*d.Size())
	for _, e := range d.Insert {
		nodes = append(nodes, e.U, e.V)
	}
	for _, e := range d.Delete {
		nodes = append(nodes, e.U, e.V)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	w := 0
	for i, v := range nodes {
		if i == 0 || v != nodes[i-1] {
			nodes[w] = v
			w++
		}
	}
	return nodes[:w]
}

// DeltaError reports why a delta cannot apply to a graph. Op is "insert"
// or "delete"; U, V name the offending edge.
type DeltaError struct {
	Op     string
	U, V   int32
	Reason string
}

func (e *DeltaError) Error() string {
	return fmt.Sprintf("graph: %s (%d,%d): %s", e.Op, e.U, e.V, e.Reason)
}

// Validate checks the delta against g without building anything: endpoints
// in range, no self-loops, weights consistent with the graph's mode, every
// inserted edge absent, every deleted edge present, and no edge named
// twice (the batch semantics would be order-dependent otherwise). The
// first violation is returned as a *DeltaError.
func (d *Delta) Validate(g *Graph) error {
	seen := make(map[[2]int32]string, d.Size())
	check := func(op string, e DeltaEdge) *DeltaError {
		if e.U < 0 || e.V < 0 || int(e.U) >= g.n || int(e.V) >= g.n {
			return &DeltaError{op, e.U, e.V, fmt.Sprintf("endpoint out of range [0,%d)", g.n)}
		}
		if e.U == e.V {
			return &DeltaError{op, e.U, e.V, "self-loop"}
		}
		key := [2]int32{e.U, e.V}
		if !g.directed && e.V < e.U {
			key = [2]int32{e.V, e.U}
		}
		if prev, dup := seen[key]; dup {
			return &DeltaError{op, e.U, e.V, "edge already named by a " + prev + " in this delta"}
		}
		seen[key] = op
		return nil
	}
	for _, e := range d.Insert {
		if err := check("insert", e); err != nil {
			return err
		}
		if g.Weighted() {
			if !(e.W > 0) || math.IsInf(e.W, 1) {
				return &DeltaError{"insert", e.U, e.V, fmt.Sprintf("invalid weight %g for a weighted graph", e.W)}
			}
		} else if e.W != 0 {
			return &DeltaError{"insert", e.U, e.V, "weight on an unweighted graph"}
		}
		if g.HasEdge(e.U, e.V) {
			return &DeltaError{"insert", e.U, e.V, "edge already exists"}
		}
	}
	for _, e := range d.Delete {
		if err := check("delete", e); err != nil {
			return err
		}
		if e.W != 0 {
			return &DeltaError{"delete", e.U, e.V, "weight on a deletion"}
		}
		if !g.HasEdge(e.U, e.V) {
			return &DeltaError{"delete", e.U, e.V, "edge does not exist"}
		}
	}
	return nil
}

// ApplyDelta returns a new immutable graph equal to g with the delta's
// deletions removed and insertions added, or a *DeltaError if the delta
// does not validate against g. The result is always heap-built (never
// file-mapped) and owns its arrays, so it outlives g's Close: it shares
// only the immutable label array of a heap-built g. g itself is untouched
// and stays fully usable. Per side, the construction copies the offsets
// once, block-copies each span of rows the delta does not touch and
// merges entry by entry only the rows it does — O(n + m + |delta| log
// |delta|), the O(n + m) part memory moves — and produces exactly the CSR
// a Builder fed the resulting edge set would produce, so downstream
// consumers (samplers, repair) see a canonical graph.
func ApplyDelta(g *Graph, d *Delta) (*Graph, error) {
	if err := d.Validate(g); err != nil {
		return nil, err
	}
	labels := g.labels
	if g.mapped {
		labels = slices.Clone(labels)
	}
	ng := &Graph{directed: g.directed, n: g.n, labels: labels}
	ins, del := expandOps(g.directed, d)
	ng.outOff, ng.outAdj, ng.outWts = mergeCSR(g, false, ins, del)
	if g.directed {
		flipOps(ins)
		flipOps(del)
		sortOps(ins)
		sortOps(del)
		ng.inOff, ng.inAdj, ng.inWts = mergeCSR(g, true, ins, del)
		ng.m = len(ng.outAdj)
	} else {
		ng.inOff, ng.inAdj, ng.inWts = ng.outOff, ng.outAdj, ng.outWts
		ng.m = len(ng.outAdj) / 2
	}
	return ng, nil
}

// expandOps copies the delta's operations into sorted scratch, doubling
// undirected edges into both directions (the symmetric adjacency stores
// each edge twice).
func expandOps(directed bool, d *Delta) (ins, del []DeltaEdge) {
	ins = append(ins, d.Insert...)
	del = append(del, d.Delete...)
	if !directed {
		for _, e := range d.Insert {
			ins = append(ins, DeltaEdge{U: e.V, V: e.U, W: e.W})
		}
		for _, e := range d.Delete {
			del = append(del, DeltaEdge{U: e.V, V: e.U})
		}
	}
	sortOps(ins)
	sortOps(del)
	return ins, del
}

func flipOps(ops []DeltaEdge) {
	for i := range ops {
		ops[i].U, ops[i].V = ops[i].V, ops[i].U
	}
}

func sortOps(ops []DeltaEdge) {
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].U != ops[j].U {
			return ops[i].U < ops[j].U
		}
		return ops[i].V < ops[j].V
	})
}

// mergeCSR builds one side's CSR from g's and the (sorted) inserts and
// deletes that land on it; in selects g's in-adjacency as the source. A
// row the delta does not name keeps its entries and moves by the running
// insert − delete count, so each span of such rows between two touched
// rows is one block copy (adjacency, and weights when present), and its
// offsets, copied up front, change only where that count is non-zero;
// only the touched rows are merged entry by entry. Every array is freshly
// allocated, never a sub-slice of g's: g may be a file mapping that is
// unmapped once g retires.
func mergeCSR(g *Graph, in bool, ins, del []DeltaEdge) ([]int, []int32, []float64) {
	oldOff, oldAdj, oldWts := g.outOff, g.outAdj, g.outWts
	if in {
		oldOff, oldAdj, oldWts = g.inOff, g.inAdj, g.inWts
	}
	n := g.n
	size := len(oldAdj) + len(ins) - len(del)
	off := slices.Clone(oldOff)
	adj := make([]int32, size)
	var wts []float64
	if oldWts != nil {
		wts = make([]float64, size)
	}
	ii, di, shift := 0, 0, 0
	for from := 0; ; {
		u := n // the next touched row, n once none is left
		if ii < len(ins) {
			u = int(ins[ii].U)
		}
		if di < len(del) && int(del[di].U) < u {
			u = int(del[di].U)
		}
		// Untouched rows [from, u): one block copy to their new place, and
		// their offsets, with row u's start (the end offset when u == n),
		// shift by the running count.
		lo, hi := oldOff[from], oldOff[u]
		copy(adj[lo+shift:], oldAdj[lo:hi])
		if wts != nil {
			copy(wts[lo+shift:], oldWts[lo:hi])
		}
		if shift != 0 {
			span := off[from : u+1]
			for v := range span {
				span[v] += shift
			}
		}
		if u == n {
			break
		}
		// Row u: merge the old entries with its inserts and deletes.
		w, end := hi+shift, oldOff[u+1]
		for r := hi; r < end || (ii < len(ins) && int(ins[ii].U) == u); {
			// Emit pending inserts that sort before the next old neighbor.
			if ii < len(ins) && int(ins[ii].U) == u && (r == end || ins[ii].V < oldAdj[r]) {
				adj[w] = ins[ii].V
				if wts != nil {
					wts[w] = ins[ii].W
				}
				ii++
				w++
				continue
			}
			// Old neighbor: keep unless deleted.
			if di < len(del) && int(del[di].U) == u && del[di].V == oldAdj[r] {
				di++
			} else {
				adj[w] = oldAdj[r]
				if wts != nil {
					wts[w] = oldWts[r]
				}
				w++
			}
			r++
		}
		shift, from = w-end, u+1
	}
	return off, adj, wts
}
