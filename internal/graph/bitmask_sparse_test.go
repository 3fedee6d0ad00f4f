package graph

import (
	"math/bits"
	"testing"

	"repro/internal/bitrand"
)

func TestClusterOrderBijection(t *testing.T) {
	src := bitrand.New(0x0c0de)
	for _, g := range []*Graph{
		Line(5), Ring(9), Clique(17), Star(64), Grid(8, 9),
		ErdosRenyi(src, 130, 0.07),
		RingChords(src, 300, 600),
	} {
		n := g.N()
		o := BuildClusterOrder(g)
		if len(o.NewID) != n || len(o.OldID) != n {
			t.Fatalf("n=%d: order arrays have lengths %d/%d", n, len(o.NewID), len(o.OldID))
		}
		seen := make([]bool, n)
		for u := 0; u < n; u++ {
			nu := o.NewID[u]
			if nu < 0 || nu >= n {
				t.Fatalf("n=%d: NewID[%d] = %d out of range", n, u, nu)
			}
			if seen[nu] {
				t.Fatalf("n=%d: NewID maps two nodes to %d", n, nu)
			}
			seen[nu] = true
			if o.OldID[nu] != u {
				t.Fatalf("n=%d: OldID[NewID[%d]] = %d, not the inverse", n, u, o.OldID[nu])
			}
		}
	}
}

func TestClusterOrderIsClusterMajor(t *testing.T) {
	src := bitrand.New(0x0c0df)
	g := RingChords(src, 256, 512)
	dec := DecompositionOf(g)
	o := BuildClusterOrder(g)
	// Within the cluster-major order, each cluster's members occupy one
	// contiguous id range, in ascending cluster-index order.
	prevCluster := -1
	for nu := 0; nu < g.N(); nu++ {
		k := dec.Of[o.OldID[nu]]
		if k < prevCluster {
			t.Fatalf("cluster-major id %d belongs to cluster %d after cluster %d", nu, k, prevCluster)
		}
		prevCluster = k
	}
}

// sparseRowBits reconstructs cluster-major row nu as a set of original node
// ids, using the order to translate bit positions back.
func sparseRowBits(m *SparseNeighborMasks, o *ClusterOrder, nu NodeID) []NodeID {
	var out []NodeID
	idx, words := m.BlockRow(nu)
	for i, wi := range idx {
		w := words[i]
		for w != 0 {
			nv := int(wi)<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			out = append(out, o.OldID[nv])
		}
	}
	return out
}

func TestSparseMasksMatchCSR(t *testing.T) {
	src := bitrand.New(0x5a5c)
	for _, g := range []*Graph{
		Line(5), Ring(9), Clique(17), Star(64), Grid(8, 9),
		ErdosRenyi(src, 130, 0.07),
		Circulant(100, 12),
		RingChords(src, 500, 1000),
	} {
		n := g.N()
		o := BuildClusterOrder(g)
		m := BuildSparseNeighborMasks(g, o)
		if m.W() != bitrand.WordsFor(n) {
			t.Fatalf("n=%d: W = %d, want %d", n, m.W(), bitrand.WordsFor(n))
		}
		for u := 0; u < n; u++ {
			got := sparseRowBits(m, o, o.NewID[u])
			want := g.Neighbors(u)
			if len(got) != len(want) {
				t.Fatalf("n=%d node %d: sparse row has %d neighbors, CSR has %d", n, u, len(got), len(want))
			}
			inRow := make(map[NodeID]bool, len(got))
			for _, v := range got {
				inRow[v] = true
			}
			for _, v := range want {
				if !inRow[v] {
					t.Fatalf("n=%d node %d: CSR neighbor %d missing from sparse row", n, u, v)
				}
			}
		}
	}
}

func TestSparseRowInvariants(t *testing.T) {
	src := bitrand.New(0x5a5d)
	g := RingChords(src, 1000, 3000)
	o := BuildClusterOrder(g)
	m := BuildSparseNeighborMasks(g, o)
	shift := m.RegionShift()
	if maxRegions := (m.W() + (1 << shift) - 1) >> shift; maxRegions > 64 {
		t.Fatalf("region shift %d leaves %d regions for w=%d, want ≤ 64", shift, maxRegions, m.W())
	}
	entries := 0
	for nu := 0; nu < g.N(); nu++ {
		idx, words := m.BlockRow(nu)
		entries += len(idx)
		var summ uint64
		for i, wi := range idx {
			if i > 0 && idx[i-1] >= wi {
				t.Fatalf("row %d: block indices not strictly ascending: %v", nu, idx)
			}
			if int(wi) >= m.W() {
				t.Fatalf("row %d: block index %d out of range [0,%d)", nu, wi, m.W())
			}
			if words[i] == 0 {
				t.Fatalf("row %d stores a zero block at index %d", nu, wi)
			}
			summ |= 1 << (uint(wi) >> shift)
		}
		if m.Summary(nu) != summ {
			t.Fatalf("row %d: summary %064b, want %064b", nu, m.Summary(nu), summ)
		}
	}
	if entries != m.Entries() {
		t.Fatalf("Entries() = %d, rows sum to %d", m.Entries(), entries)
	}
	if entries > 2*g.NumEdges() {
		t.Fatalf("%d entries exceed the 2E = %d bound", entries, 2*g.NumEdges())
	}
}

func TestSparseMasksOfMemoizes(t *testing.T) {
	src := bitrand.New(0x5a5e)
	d := AugmentDual(src, RingChords(src, 200, 400), 300)
	s1 := SparseMasksOf(d)
	s2 := SparseMasksOf(d)
	if s1 != s2 {
		t.Fatal("SparseMasksOf rebuilt the set for the same dual")
	}
	if s1.Order != ClusterOrderOf(d.G()) {
		t.Fatal("sparse set does not share the graph's memoized cluster order")
	}
	if gp := s1.GPrimeMasks(); gp != s1.GPrimeMasks() {
		t.Fatal("GPrimeMasks rebuilt the G' rows")
	} else if gp == s1.G {
		t.Fatal("distinct G' shares the G rows")
	}

	// Uniform duals must not build a second mask set for G' = G.
	u := UniformDual(Ring(64))
	su := SparseMasksOf(u)
	if su.GPrimeMasks() != su.G {
		t.Fatal("uniform dual built separate G' rows")
	}
}

func TestSparseGPrimeMatchesDense(t *testing.T) {
	src := bitrand.New(0x5a5f)
	d := AugmentDual(src, RingChords(src, 300, 600), 900)
	s := SparseMasksOf(d)
	gp := s.GPrimeMasks()
	for u := 0; u < d.N(); u++ {
		got := sparseRowBits(gp, s.Order, s.Order.NewID[u])
		want := d.GPrime().Neighbors(u)
		if len(got) != len(want) {
			t.Fatalf("node %d: sparse G' row has %d neighbors, CSR has %d", u, len(got), len(want))
		}
	}
}

func TestEstimateSparseMaskBytesBounds(t *testing.T) {
	src := bitrand.New(0x5a60)
	for _, d := range []*Dual{
		UniformDual(RingChords(src, 400, 800)),
		AugmentDual(src, RingChords(src, 400, 800), 600),
	} {
		s := SparseMasksOf(d)
		actual := int64(s.G.Bytes() + 16*d.N())
		if gp := s.GPrimeMasks(); gp != s.G {
			actual += int64(gp.Bytes())
		}
		est := EstimateSparseMaskBytes(d, true)
		if est < actual {
			t.Fatalf("estimate %d below actual footprint %d", est, actual)
		}
		if estG := EstimateSparseMaskBytes(d, false); estG > est {
			t.Fatalf("G-only estimate %d exceeds with-G' estimate %d", estG, est)
		}
	}

	// On a dense graph a row has fewer nonzero blocks than neighbors: the
	// entry count is capped at ⌈n/64⌉ per row, not 2·E, and still bounds the
	// real footprint.
	dense := UniformDual(Circulant(512, 400))
	n, w := int64(dense.N()), int64(bitrand.WordsFor(dense.N()))
	est := EstimateSparseMaskBytes(dense, true)
	if want := 12*n*w + 12*n + 16*n; est != want {
		t.Fatalf("dense estimate %d, want the block cap %d", est, want)
	}
	if actual := int64(SparseMasksOf(dense).G.Bytes() + 16*dense.N()); est < actual {
		t.Fatalf("dense estimate %d below actual footprint %d", est, actual)
	}
}
