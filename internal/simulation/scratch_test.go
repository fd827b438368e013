package simulation

import (
	"testing"

	"repro/internal/graph"
)

// TestScratchRefinerMatchesFresh runs the same refinements with and without
// a scratch — reusing one scratch across cycles — and demands identical
// relations, removal counts and totality verdicts.
func TestScratchRefinerMatchesFresh(t *testing.T) {
	q := graph.MustParse(`
node u0 A
node u1 B
node u2 C
edge u0 u1
edge u1 u2
edge u2 u0
`, nil)
	g := graph.MustParse(`
node a A
node b B
node c C
node a2 A
node b2 B
node x C
edge a b
edge b c
edge c a
edge a2 b2
edge b2 x
`, q.Labels())

	var sc Scratch
	for cycle := 0; cycle < 3; cycle++ {
		for _, mode := range []Mode{ChildOnly, ChildParent} {
			fresh := InitByLabel(q, g)
			fr := NewRefiner(q, g, fresh, mode)
			fr.SeedAll()
			wantOK := fr.Run()

			pooled := InitByLabelIn(q, g, &sc)
			pr := NewRefinerIn(q, g, pooled, mode, &sc)
			pr.SeedAll()
			gotOK := pr.Run()

			if wantOK != gotOK {
				t.Fatalf("cycle %d mode %v: totality %v vs %v", cycle, mode, wantOK, gotOK)
			}
			if !fresh.Equal(pooled) {
				t.Fatalf("cycle %d mode %v: relations differ:\n%v\n%v", cycle, mode, fresh, pooled)
			}
			if fr.Removed() != pr.Removed() {
				t.Fatalf("cycle %d mode %v: removed %d vs %d", cycle, mode, fr.Removed(), pr.Removed())
			}
		}
	}
}

// TestScratchRelationShrinks checks that a pooled relation re-bounded to a
// smaller capacity does not leak members or capacity from a previous, larger
// cycle.
func TestScratchRelationShrinks(t *testing.T) {
	var sc Scratch
	big := sc.Relation(3, 1000)
	big[0].Add(900)
	big[1].Add(64)
	small := sc.Relation(2, 10)
	for u, set := range small {
		if !set.Empty() {
			t.Fatalf("reused set %d not empty: %v", u, set.Slice())
		}
		if set.Contains(900) || set.Contains(64) {
			t.Fatalf("reused set %d leaked members", u)
		}
	}
	small[0].Add(9)
	if small[0].Len() != 1 || !small[0].Contains(9) {
		t.Fatal("reused set misbehaves after Reset")
	}
}

// TestScratchSpareSetRotation checks the pruning sets reset per cycle.
func TestScratchSpareSetRotation(t *testing.T) {
	var sc Scratch
	a := sc.SpareSet(100)
	b := sc.SpareSet(100)
	if a == b {
		t.Fatal("spare sets within one cycle must be distinct")
	}
	a.Add(1)
	b.Add(2)
	sc.Relation(1, 100) // next cycle
	c := sc.SpareSet(100)
	if !c.Empty() {
		t.Fatalf("rotated spare set not empty: %v", c.Slice())
	}
}

// TestNilScratchAllocates covers the one-shot path: nil scratches must
// behave exactly like the historical allocating entry points.
func TestNilScratchAllocates(t *testing.T) {
	var sc *Scratch
	rel := sc.Relation(2, 50)
	if len(rel) != 2 || rel[0].Capacity() < 50 {
		t.Fatalf("nil-scratch relation malformed: %d sets", len(rel))
	}
	set := sc.SpareSet(10)
	if set == nil || !set.Empty() {
		t.Fatal("nil-scratch spare set malformed")
	}
}
