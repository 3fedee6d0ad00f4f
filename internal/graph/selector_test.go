package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/bitrand"
)

func TestSelectAllNone(t *testing.T) {
	var all SelectAll
	var none SelectNone
	if !all.All() || all.None() || !all.Includes(1, 2) {
		t.Fatal("SelectAll misbehaves")
	}
	if none.All() || !none.None() || none.Includes(1, 2) {
		t.Fatal("SelectNone misbehaves")
	}
}

func TestSelectSet(t *testing.T) {
	s := NewSelectSet([]EdgeKey{{U: 3, V: 1}, {U: 2, V: 5}})
	if !s.Includes(1, 3) || !s.Includes(3, 1) || !s.Includes(5, 2) {
		t.Fatal("set membership broken")
	}
	if s.Includes(1, 2) || s.All() || s.None() {
		t.Fatal("set should not include (1,2) nor be all/none")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	empty := NewSelectSet(nil)
	if !empty.None() {
		t.Fatal("empty set must report None")
	}
}

func TestSelectCrossCut(t *testing.T) {
	s := SelectCrossCut{InA: func(u NodeID) bool { return u < 5 }}
	if s.Includes(1, 7) || !s.Includes(1, 2) || !s.Includes(7, 9) {
		t.Fatal("cross cut wrong")
	}
}

func TestSelectFunc(t *testing.T) {
	s := SelectFunc{F: func(u, v NodeID) bool { return (u+v)%2 == 0 }}
	if !s.Includes(1, 3) || s.Includes(1, 2) {
		t.Fatal("func selector wrong")
	}
}

func TestMakeEdgeKeyCanonical(t *testing.T) {
	err := quick.Check(func(a, b uint8) bool {
		k1 := MakeEdgeKey(int(a), int(b))
		k2 := MakeEdgeKey(int(b), int(a))
		return k1 == k2 && k1.U <= k1.V
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCliqueCoverDualClique(t *testing.T) {
	d, _ := DualClique(32, 0)
	c := BuildCliqueCover(d.G(), d.G().NumEdges())
	if !c.Validate(d.G()) {
		t.Fatal("cover invalid")
	}
	if c.Count != 2 {
		t.Fatalf("dual clique should cover with 2 cliques, got %d", c.Count)
	}
	if len(c.Residual) != 1 {
		t.Fatalf("residual should be just the bridge, got %d edges", len(c.Residual))
	}
}

func TestCliqueCoverLine(t *testing.T) {
	g := Line(10)
	c := BuildCliqueCover(g, g.NumEdges())
	if !c.Validate(g) {
		t.Fatal("cover invalid on line")
	}
	// Edges of a line are 2-cliques; total residual + intra == edges.
}

// TestCliqueCoverOfVerdict pins the memoized clique-structure verdict: a
// cover with at most n residual edges is returned (the same pointer on every
// call), and a graph whose residual exceeds n memoizes nil.
func TestCliqueCoverOfVerdict(t *testing.T) {
	d, _ := DualClique(32, 3)
	c := CliqueCoverOf(d.G())
	if c == nil || !c.Validate(d.G()) || len(c.Residual) > d.N() {
		t.Fatalf("dual clique: cover %+v, want a valid clique-structured cover", c)
	}
	if CliqueCoverOf(d.G()) != c {
		t.Fatal("dual clique: cover rebuilt instead of memoized")
	}
	// C_64(1..4): greedy 5-cliques leave ~2 residual edges per node.
	circ := Circulant(64, 8)
	if full := BuildCliqueCover(circ, circ.NumEdges()); len(full.Residual) <= circ.N() {
		t.Fatalf("circulant residual %d, expected > n = %d", len(full.Residual), circ.N())
	}
	if CliqueCoverOf(circ) != nil || CliqueCoverOf(circ) != nil {
		t.Fatal("circulant: CliqueCoverOf returned a cover past the residual bound")
	}
}

func TestCliqueCoverRandomQuick(t *testing.T) {
	src := bitrand.New(31)
	err := quick.Check(func(seed uint32, raw uint8) bool {
		n := int(raw%40) + 2
		s := src.Split(uint64(seed))
		g := ErdosRenyi(s, n, 0.25)
		return BuildCliqueCover(g, g.NumEdges()).Validate(g)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}
