// Package irgl provides an IrGL-like operator intermediate representation
// and an instrumented runtime for graph applications.
//
// The paper's study compiles graph algorithms written in the IrGL DSL
// down to OpenCL kernels. Here the same algorithms are expressed against
// this package's operators (ForAll over worklist items or nodes, nested
// edge visits, atomic read-modify-writes, host-side fixpoint loops). An
// edge visit is Item.Edges: it charges a node's whole edge list at once
// and hands the kernel the graph's slices, so the kernel's inner loop is
// plain Go with no call per edge. The runtime executes the operators
// sequentially - so applications are functionally real and testable -
// while recording, per kernel launch, exactly the quantities that the
// paper's optimisations act on (Table VI):
//
//   - active items and total edge work (parallelism, launch utilisation),
//   - the per-item work distribution (load imbalance exploited by the
//     nested-parallelism optimisations wg / sg / fg),
//   - atomic worklist pushes (elided by cooperative conversion, coop-cv),
//   - irregular memory accesses (intra-workgroup memory divergence),
//   - host loop iterations (kernel-launch overhead removed by oitergb).
//
// The resulting Trace depends only on (application, input); the cost
// model in internal/cost combines a Trace with a chip model and an
// optimisation configuration to produce a simulated runtime.
package irgl

import (
	"fmt"
	"math"
	"math/bits"

	"gpuport/internal/graph"
)

// WorkHistBuckets is the number of log2 buckets in the per-item work
// histogram. Bucket b counts items whose work w satisfies
// 2^b <= w < 2^(b+1); zero-work items are counted separately.
const WorkHistBuckets = 24

// KernelStats records the instrumented execution of one kernel launch.
type KernelStats struct {
	// Name identifies the kernel within the application.
	Name string
	// LoopID is the ID of the enclosing host Iterate loop, or -1 when
	// the launch happens outside any loop. Only launches inside loops
	// are candidates for iteration outlining (oitergb).
	LoopID int
	// Items is the number of work-items launched (worklist length or
	// node count).
	Items int64
	// ZeroWorkItems counts items that performed no edge work.
	ZeroWorkItems int64
	// TotalWork is the total work units (typically edges) processed.
	TotalWork int64
	// MaxWork is the largest per-item work.
	MaxWork int64
	// WorkHist is the log2 histogram of nonzero per-item work.
	WorkHist [WorkHistBuckets]int64
	// WorkHistSum holds the total work per histogram bucket, so bucket
	// means are exact rather than approximated by bucket midpoints.
	WorkHistSum [WorkHistBuckets]int64
	// AtomicPushes counts worklist pushes (one global atomic RMW each,
	// unless cooperative conversion combines them).
	AtomicPushes int64
	// AtomicRMWs counts other global atomic read-modify-writes
	// (atomic min / add / CAS on application data).
	AtomicRMWs int64
	// RandomAccesses counts irregular (uncoalesced) global memory
	// accesses - the source of intra-workgroup memory divergence.
	RandomAccesses int64
	// LocalBarrierRounds counts algorithmic intra-workgroup barrier
	// phases the kernel itself requires (beyond those optimisations add).
	LocalBarrierRounds int64
}

// LoopStats records one host-side fixpoint loop (an Iterate call).
type LoopStats struct {
	// ID matches KernelStats.LoopID.
	ID int
	// Name labels the loop for reports.
	Name string
	// Iterations is the number of times the body executed.
	Iterations int64
	// Launches is the total number of kernel launches inside the loop.
	Launches int64
}

// Trace is the full instrumented execution record of one application on
// one input. It is the interface between the algorithm layer and the
// performance model.
type Trace struct {
	App      string
	Input    string
	Launches []KernelStats
	Loops    []LoopStats
}

// TotalLaunches returns the number of kernel launches recorded.
func (t *Trace) TotalLaunches() int { return len(t.Launches) }

// TotalEdgeWork sums work units across all launches.
func (t *Trace) TotalEdgeWork() int64 {
	var sum int64
	for i := range t.Launches {
		sum += t.Launches[i].TotalWork
	}
	return sum
}

// Runtime executes operators over a graph and accumulates a Trace.
// It is not safe for concurrent use; each application run owns one.
type Runtime struct {
	g        *graph.Graph
	trace    *Trace
	loopID   int // current loop, -1 outside
	nextLoop int
}

// NewRuntime returns a runtime over g, tracing under the given
// application name.
func NewRuntime(app string, g *graph.Graph) *Runtime {
	return &Runtime{
		g:      g,
		trace:  &Trace{App: app, Input: g.Name},
		loopID: -1,
	}
}

// Graph returns the input graph.
func (rt *Runtime) Graph() *graph.Graph { return rt.g }

// Trace returns the accumulated trace. Valid after the application has
// finished running.
func (rt *Runtime) Trace() *Trace { return rt.trace }

// Iterate runs body until it returns false, modelling the host-side
// fixpoint loop ("Pipe" in IrGL). Kernel launches inside the body are
// tagged with this loop's ID, making them candidates for iteration
// outlining. Nested Iterate calls are supported; launches are tagged
// with the innermost loop.
func (rt *Runtime) Iterate(name string, body func(iter int) bool) {
	id := rt.nextLoop
	rt.nextLoop++
	outer := rt.loopID
	rt.loopID = id
	loop := LoopStats{ID: id, Name: name}
	before := len(rt.trace.Launches)
	for iter := 0; ; iter++ {
		loop.Iterations++
		if !body(iter) {
			break
		}
		// Safety valve: a graph algorithm that exceeds this bound on
		// inputs of our size is buggy, not slow.
		if iter > 1<<22 {
			panic(fmt.Sprintf("irgl: loop %q exceeded iteration bound", name))
		}
	}
	loop.Launches = int64(len(rt.trace.Launches) - before)
	rt.trace.Loops = append(rt.trace.Loops, loop)
	rt.loopID = outer
}

// Kernel is an in-progress kernel launch. Obtain one from Launch, run
// one or more ForAll operators against it, then call End exactly once.
type Kernel struct {
	rt    *Runtime
	stats KernelStats
	ended bool
}

// Launch begins a kernel launch named name.
func (rt *Runtime) Launch(name string) *Kernel {
	return &Kernel{rt: rt, stats: KernelStats{Name: name, LoopID: rt.loopID}}
}

// End finalises the launch and appends its stats to the trace.
func (k *Kernel) End() {
	if k.ended {
		panic("irgl: Kernel.End called twice")
	}
	k.ended = true
	k.rt.trace.Launches = append(k.rt.trace.Launches, k.stats)
}

// Stats exposes the accumulated statistics (primarily for tests).
func (k *Kernel) Stats() KernelStats { return k.stats }

// BarrierRound records an algorithmic intra-workgroup barrier phase.
func (k *Kernel) BarrierRound() { k.stats.LocalBarrierRounds++ }

// Item is the per-work-item context handed to ForAll bodies. Its
// methods perform the actual operation and record its cost signature.
type Item struct {
	k    *Kernel
	work int64
}

// ForAllNodes launches one work-item per graph node.
func (k *Kernel) ForAllNodes(f func(it *Item, u int32)) {
	n := int32(k.rt.g.NumNodes())
	k.stats.Items += int64(n)
	it := Item{k: k}
	for u := int32(0); u < n; u++ {
		it.work = 0
		f(&it, u)
		k.recordItem(it.work)
	}
}

// ForAll launches one work-item per element of items (typically a
// drained worklist).
func (k *Kernel) ForAll(items []int32, f func(it *Item, v int32)) {
	if mutation("skip-last-frontier") && len(items) > 0 {
		items = items[:len(items)-1]
	}
	k.stats.Items += int64(len(items))
	it := Item{k: k}
	for _, v := range items {
		it.work = 0
		f(&it, v)
		k.recordItem(it.work)
	}
}

func (k *Kernel) recordItem(work int64) {
	if work == 0 {
		k.stats.ZeroWorkItems++
		return
	}
	k.stats.TotalWork += work
	if work > k.stats.MaxWork {
		k.stats.MaxWork = work
	}
	b := bits.Len64(uint64(work)) - 1
	if b >= WorkHistBuckets {
		b = WorkHistBuckets - 1
	}
	k.stats.WorkHist[b]++
	k.stats.WorkHistSum[b] += work
}

// Edges returns the out-edges of u as its destinations and the weights
// parallel to them, and charges their visit up front: one work unit
// and one irregular access per edge (graph applications touch per-
// destination state, which is uncoalesced by nature). The kernel loops
// over the slices itself. Both alias the graph, like graph.Neighbors,
// and must not be modified; their capacity ends at u's row.
func (it *Item) Edges(u int32) (dst, w []int32) {
	g := it.k.rt.g
	lo, hi := g.RowPtr[u], g.RowPtr[u+1]
	it.work += int64(hi - lo)
	it.k.stats.RandomAccesses += int64(hi - lo)
	return g.Dst[lo:hi:hi], g.Weight[lo:hi:hi]
}

// Degree returns the out-degree of u without counting work.
func (it *Item) Degree(u int32) int { return it.k.rt.g.Degree(u) }

// Work adds n generic work units to the item (used by kernels whose
// inner work is not a plain edge visit, e.g. pointer jumping).
func (it *Item) Work(n int64) { it.work += n }

// RandomAccess records n additional irregular global memory accesses.
func (it *Item) RandomAccess(n int64) { it.k.stats.RandomAccesses += n }

// AtomicMin atomically lowers arr[i] to v; reports whether it improved
// the value. Counts one global atomic RMW and one irregular access.
func (it *Item) AtomicMin(arr []int32, i int32, v int32) bool {
	it.k.stats.AtomicRMWs++
	it.k.stats.RandomAccesses++
	if v < arr[i] {
		arr[i] = v
		return true
	}
	return false
}

// AtomicMax atomically raises arr[i] to v; reports whether it improved.
func (it *Item) AtomicMax(arr []int32, i int32, v int32) bool {
	it.k.stats.AtomicRMWs++
	it.k.stats.RandomAccesses++
	if v > arr[i] {
		arr[i] = v
		return true
	}
	return false
}

// AtomicAdd atomically adds delta to arr[i], returning the old value.
func (it *Item) AtomicAdd(arr []int32, i int32, delta int32) int32 {
	it.k.stats.AtomicRMWs++
	it.k.stats.RandomAccesses++
	old := arr[i]
	arr[i] += delta
	return old
}

// AtomicAddF atomically adds delta to arr[i] (float variant, used by
// PageRank residual propagation), returning the old value.
func (it *Item) AtomicAddF(arr []float64, i int32, delta float64) float64 {
	it.k.stats.AtomicRMWs++
	it.k.stats.RandomAccesses++
	old := arr[i]
	arr[i] += delta
	return old
}

// AtomicMin64 atomically lowers arr[i] to v; reports whether it
// improved the value. Used for packed (weight, edge) reductions such as
// Boruvka's minimum outgoing edge search.
func (it *Item) AtomicMin64(arr []int64, i int32, v int64) bool {
	it.k.stats.AtomicRMWs++
	it.k.stats.RandomAccesses++
	if v < arr[i] {
		arr[i] = v
		return true
	}
	return false
}

// AtomicCAS performs a compare-and-swap on arr[i].
func (it *Item) AtomicCAS(arr []int32, i int32, old, new int32) bool {
	it.k.stats.AtomicRMWs++
	it.k.stats.RandomAccesses++
	if arr[i] == old {
		arr[i] = new
		return true
	}
	return false
}

// Push appends v to the worklist's next buffer, counting one global
// atomic RMW (the worklist tail bump that coop-cv aggregates).
func (it *Item) Push(wl *Worklist, v int32) {
	it.k.stats.AtomicPushes++
	wl.next = append(wl.next, v)
}

// Worklist is a double-buffered dynamic worklist: kernels push into the
// next buffer while draining the current one, and the host swaps the
// buffers between launches.
type Worklist struct {
	cur, next []int32
}

// NewWorklist returns an empty worklist with capacity hints for a graph
// of n nodes.
func NewWorklist(n int) *Worklist {
	return &Worklist{
		cur:  make([]int32, 0, n),
		next: make([]int32, 0, n),
	}
}

// SeedHost pushes v from the host (no device atomic is charged).
func (wl *Worklist) SeedHost(v int32) { wl.cur = append(wl.cur, v) }

// Items returns the current buffer for a ForAll.
func (wl *Worklist) Items() []int32 { return wl.cur }

// Swap makes the next buffer current and clears the old one. Returns
// the new current length.
func (wl *Worklist) Swap() int {
	wl.cur, wl.next = wl.next, wl.cur[:0]
	return len(wl.cur)
}

// Len returns the current buffer length.
func (wl *Worklist) Len() int { return len(wl.cur) }

// PendingLen returns the next buffer length (pushes so far this round).
func (wl *Worklist) PendingLen() int { return len(wl.next) }

// ImbalanceFactor estimates, from the work histogram, the SIMD load
// imbalance at vector width k: the expected ratio between the cost of
// executing k items in lockstep (k * E[max of k draws]) and their useful
// work (k * E[work]). A factor of 1 means perfectly balanced; social
// networks at k=32 typically produce factors of 3-10. The cost model
// uses this to size the benefit of the nested-parallelism optimisations
// for a chip-specific subgroup / workgroup width.
func (s *KernelStats) ImbalanceFactor(k int) float64 {
	n := s.TotalWork
	items := s.Items - s.ZeroWorkItems
	if items <= 0 || n <= 0 || k <= 1 {
		return 1
	}
	mean := float64(n) / float64(items)

	// E[max of k iid draws] = sum_b rep(b) * (F(b)^k - F(b-1)^k), where
	// rep(b) is the exact mean work within bucket b.
	var cum float64
	total := float64(items)
	prevPow := 0.0
	emax := 0.0
	for b := 0; b < WorkHistBuckets; b++ {
		c := s.WorkHist[b]
		if c == 0 {
			continue
		}
		cum += float64(c)
		pow := math.Pow(cum/total, float64(k))
		rep := float64(s.WorkHistSum[b]) / float64(c)
		emax += rep * (pow - prevPow)
		prevPow = pow
	}
	if emax < mean {
		return 1
	}
	return emax / mean
}
