package radio

import (
	"strconv"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// DeliveryPlan selects the engine's delivery implementation. All paths
// compute the identical reception relation — a listener receives iff exactly
// one of its round-topology neighbors transmits, with collisions and silence
// indistinguishable — so the plan changes cost, never outcome (the
// differential equivalence tests enforce this bit for bit).
type DeliveryPlan int

const (
	// PlanAuto (the zero value) re-derives the plan at every epoch commit,
	// and is the only plan that picks an accelerator. An epoch whose G is
	// clique-structured (graph.CliqueCoverOf returns a cover, i.e. the greedy
	// cover leaves at most n residual edges) takes the clique-tally walk,
	// O(n + |X| + residual) per round. Otherwise the epoch takes the
	// word-parallel path when its n clears bitmapMinNodes and its estimated
	// mask footprint fits sparseMaskMaxBytes, and the CSR walk otherwise.
	// Within a bitmap epoch, rounds with fewer transmitters than the bitmap
	// row width fall back to the CSR walk per round — the scalar walk is
	// O(Σ deg(tx)) and beats the row scans on sparse rounds.
	PlanAuto DeliveryPlan = iota
	// PlanScalar forces the CSR walk, with no accelerator: the reference
	// walk the other plans are tested against.
	PlanScalar
	// PlanBitmap forces the word-parallel path for every round, at any n:
	// per-node nonzero mask blocks under a cluster-major renumbering (see
	// graph.SparseMasksOf), with per-row and per-round occupancy summaries
	// pruning the kernel. Rounds whose selector is neither all nor none
	// (adaptive or committed partial selectors) have no precomputed rows and
	// fall back to the CSR walk.
	PlanBitmap
)

// String implements fmt.Stringer.
func (p DeliveryPlan) String() string {
	switch p {
	case PlanAuto:
		return "PlanAuto"
	case PlanScalar:
		return "PlanScalar"
	case PlanBitmap:
		return "PlanBitmap"
	}
	return "DeliveryPlan(" + strconv.Itoa(int(p)) + ")"
}

// Auto-plan thresholds. Below bitmapMinNodes the rounds are too cheap for
// the plan to matter. Above it the block-sparse masks cost memory
// proportional to the edge count, so PlanAuto gates on their estimated
// footprint rather than on n or density.
const (
	bitmapMinNodes = 2048
	// sparseMaskMaxBytes caps the estimated block-sparse mask footprint
	// (graph.EstimateSparseMaskBytes) PlanAuto will commit to: 2 GiB covers
	// hundreds of millions of edges while keeping a runaway-dense G' from
	// silently eating the machine.
	sparseMaskMaxBytes = int64(1) << 31
)

// setupPlan derives the delivery plan for the current epoch's topology:
// called once at engine construction and again at every epoch swap, so churn
// re-plans at O(revision) cost. The clique cover and the mask footprint
// verdict are memoized per graph; the epoch's mask rows are not touched
// here: roundSparse hoists them on the first round that runs the kernel.
func (e *engine) setupPlan() {
	e.plan = PlanScalar
	e.accel = nil
	e.bitmapTxMin = 0
	e.sparseG, e.sparseGP = nil, nil
	e.newID, e.oldID = nil, nil
	switch e.cfg.Plan {
	case PlanScalar:
		return
	case PlanAuto:
		if c := graph.CliqueCoverOf(e.net.G()); c != nil {
			e.accel = c
			e.cliqueTx, e.cliqueS = e.sc.clique(c.Count)
			return
		}
		if e.n < bitmapMinNodes ||
			graph.EstimateSparseMaskBytes(e.net, e.cfg.Link != nil) > sparseMaskMaxBytes {
			return
		}
		e.bitmapTxMin = bitrand.WordsFor(e.n)
	}
	e.plan = PlanBitmap
	e.txWords = e.sc.txBitmap(bitrand.WordsFor(e.n))
}

// roundSparse returns the block-sparse mask rows matching this round's
// topology, or nil when the selector is neither all nor none (no
// precomputed rows), which keeps that round on the scalar walk. The first
// call with rows to return hoists the epoch's row views and their
// cluster-major permutation (masks memoize per network, so repeated trials
// and revisits share one build); an epoch whose every round has a partial
// selector, as under a random-loss adversary, never builds them.
func (e *engine) roundSparse(selector graph.EdgeSelector) *graph.SparseNeighborMasks {
	if !selector.None() && !selector.All() {
		return nil
	}
	if e.sparseG == nil {
		set := graph.SparseMasksOf(e.net)
		e.sparseG = set.G
		if e.cfg.Link != nil {
			e.sparseGP = set.GPrimeMasks()
		}
		//dglint:allow viewescape: engine-owned hoist, reset by setupPlan at every epoch boundary
		e.newID, e.oldID = set.Order.NewID, set.Order.OldID
		e.sumShift = e.sparseG.RegionShift()
	}
	if selector.None() {
		return e.sparseG
	}
	return e.sparseGP
}

// fillTxSparse fills the transmitter bitmap from the round's transmitter
// list in the cluster-major bit space of the sparse masks, maintaining the
// round's region-occupancy summary as bits are set.
func (e *engine) fillTxSparse() {
	txw := e.txWords
	clear(txw)
	var s uint64
	for _, v := range e.tx {
		nv := e.newID[v]
		txw[nv>>6] |= 1 << (uint(nv) & 63)
		s |= 1 << (uint(nv>>6) >> e.sumShift)
	}
	e.txSumm = s
}

// deliverSparse is the block-sparse delivery kernel: every listener is
// classified by intersecting only its nonzero mask blocks with the
// transmitter bitmap (IntersectOneIndexed), after a one-word AND of the
// row's region summary against the round's transmitter summary rejects
// listeners whose neighborhood shares no region with any transmitter. Rows
// are walked in cluster-major order — the layout's cache order — and every
// id crossing the Deliver/record boundary is translated back to the
// original space, so observable output is independent of the renumbering.
// Only successful receptions are handed out, as in deliver.
//
//dglint:noalloc gate=TestSparseDeliveryAllocs
func (e *engine) deliverSparse(r int, res *Result, m *graph.SparseNeighborMasks) []Delivery {
	//dglint:allow viewescape: call-scoped row views of the epoch's memoized masks
	offs, idx, words := m.Rows()
	//dglint:allow viewescape: call-scoped row views of the epoch's memoized masks
	summ := m.Summaries()
	txw := e.txWords
	txSumm := e.txSumm
	oldID := e.oldID

	var recorded []Delivery
	record := e.cfg.Recorder != nil
	if record {
		recorded = e.recordBuf[:0]
	}
	for nu := 0; nu < e.n; nu++ {
		if txw[nu>>6]>>(uint(nu)&63)&1 != 0 || summ[nu]&txSumm == 0 {
			// Transmitting, or no transmitter anywhere near the row's blocks.
			continue
		}
		count, from := bitrand.IntersectOneIndexed(idx[offs[nu]:offs[nu+1]], words[offs[nu]:offs[nu+1]], txw)
		if count == 1 {
			u, v := oldID[nu], oldID[from]
			msg := e.msgOf[v]
			e.procs[u].Deliver(r, msg)
			e.mon.observe(r, u, msg)
			res.Deliveries++
			if record {
				recorded = append(recorded, Delivery{To: u, From: v})
			}
		}
	}
	if record {
		e.recordBuf = recorded[:0]
	}
	return recorded
}
