package plan

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/graph"
)

// p builds a pattern from the text format with its own label table — Canon
// and ContainedIn are label-name based, so independent tables must still
// collide correctly.
func p(t testing.TB, text string) *graph.Graph {
	t.Helper()
	g, err := graph.ParseString(text, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCanonIsomorphismInvariance(t *testing.T) {
	// The same triangle submitted under two node numberings (and two label
	// tables) must produce one key, and the perms must translate edges.
	q1 := p(t, "node a A\nnode b B\nnode c C\nedge a b\nedge b c\nedge a c")
	q2 := p(t, "node x C\nnode y A\nnode z B\nedge y z\nedge z x\nedge y x")

	k1, perm1 := Canon(q1)
	k2, perm2 := Canon(q2)
	if k1 != k2 {
		t.Fatalf("isomorphic patterns got distinct keys:\n  %q\n  %q", k1, k2)
	}
	if !strings.HasPrefix(k1, "c|") {
		t.Fatalf("small labeled pattern should canonicalize fully, got %q", k1)
	}

	// inv2[pos] = q2 node at canonical position pos; then q1 edge (u,v)
	// must appear in q2 as (inv2[perm1[u]], inv2[perm1[v]]).
	inv2 := make([]int32, len(perm2))
	for u, pos := range perm2 {
		inv2[pos] = int32(u)
	}
	q1.Edges(func(u, v int32) {
		mu, mv := inv2[perm1[u]], inv2[perm1[v]]
		if !q2.HasEdge(mu, mv) {
			t.Errorf("q1 edge (%d,%d) has no image (%d,%d) in q2", u, v, mu, mv)
		}
		if q1.LabelName(u) != q2.LabelName(mu) {
			t.Errorf("perm maps label %q onto %q", q1.LabelName(u), q2.LabelName(mu))
		}
	})
	if q1.NumEdges() != q2.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", q1.NumEdges(), q2.NumEdges())
	}
}

func TestCanonDistinguishesStructure(t *testing.T) {
	path := p(t, "node a A\nnode b B\nnode c C\nedge a b\nedge b c")
	fork := p(t, "node a A\nnode b B\nnode c C\nedge a b\nedge a c")
	fwd := p(t, "node a A\nnode b B\nedge a b")
	rev := p(t, "node a A\nnode b B\nedge b a")

	kp, _ := Canon(path)
	kf, _ := Canon(fork)
	if kp == kf {
		t.Error("path and fork share a key")
	}
	k1, _ := Canon(fwd)
	k2, _ := Canon(rev)
	if k1 == k2 {
		t.Error("edge direction ignored by the key")
	}
}

func TestCanonBudgetFallback(t *testing.T) {
	// A label-uniform 8-ring is vertex transitive: refinement leaves one
	// class of 8, 8! = 40320 > canonBudget, so Canon must fall back to the
	// distinct "x|" identity key instead of enumerating.
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		sb.WriteString("node n")
		sb.WriteByte(byte('0' + i))
		sb.WriteString(" A\n")
	}
	for i := 0; i < 8; i++ {
		sb.WriteString("edge n")
		sb.WriteByte(byte('0' + i))
		sb.WriteString(" n")
		sb.WriteByte(byte('0' + (i+1)%8))
		sb.WriteString("\n")
	}
	q := p(t, sb.String())
	k, perm := Canon(q)
	if !strings.HasPrefix(k, "x|") {
		t.Fatalf("ring key = %q, want identity fallback", k)
	}
	for u, pos := range perm {
		if int32(u) != pos {
			t.Fatalf("fallback perm not identity at %d: %d", u, pos)
		}
	}
}

func TestContainedIn(t *testing.T) {
	edge := "node a A\nnode b B\nedge a b"
	cases := []struct {
		name          string
		qNew, qCached string
		want          bool
	}{
		{"reflexive", edge, edge, true},
		{"two sources fold onto one",
			edge,
			"node a1 A\nnode b B\nnode a2 A\nedge a1 b\nedge a2 b",
			true},
		{"looser cached pattern (subset of edges)",
			"node a1 A\nnode b B\nnode a2 A\nedge a1 b\nedge b a2",
			"node a A\nnode b B\nnode a2 A\nedge a b",
			true},
		{"cached smaller than query", // surjection impossible
			"node a1 A\nnode b B\nnode a2 A\nedge a1 b\nedge b a2",
			edge,
			false},
		{"label mismatch", edge, "node a A\nnode c C\nedge a c", false},
		{"direction flipped", edge, "node a A\nnode b B\nedge b a", false},
		{"cycle not contained in edge",
			edge,
			"node a A\nnode b B\nedge a b\nedge b a",
			false},
		{"edge contained in cycle",
			"node a A\nnode b B\nedge a b\nedge b a",
			edge,
			true},
		{"self loop needs a self loop",
			edge,
			"node a A\nnode b B\nedge a b\nedge b b",
			false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ContainedIn(p(t, tc.qNew), p(t, tc.qCached)); got != tc.want {
				t.Fatalf("ContainedIn = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestPruneSound checks the load-bearing planner invariant directly: every
// center Prune discards has a ball with no strong-simulation match. All
// graph nodes go in, and each discarded one is re-checked by building and
// evaluating its actual ball.
func TestPruneSound(t *testing.T) {
	for _, n := range []int{40, 120} {
		for seed := int64(1); seed <= 4; seed++ {
			g := generator.Synthetic(n, 1.2, 6, seed)
			q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 4, Alpha: 1.2, Seed: seed + 100})
			dq, ok := graph.Diameter(q)
			if !ok || dq == 0 {
				continue
			}
			ix := NewIndex(g)
			for _, radius := range []int{1, dq} {
				all := make([]int32, n)
				for i := range all {
					all[i] = int32(i)
				}
				var st PruneStats
				kept := ix.Prune(q, radius, all, &st)
				if st.Before != n {
					t.Fatalf("Before = %d, want %d", st.Before, n)
				}
				inKept := make(map[int32]bool, len(kept))
				for _, c := range kept {
					inKept[c] = true
				}
				for v := int32(0); v < int32(n); v++ {
					if inKept[v] {
						continue
					}
					ball := graph.NewBall(g, v, radius)
					if ps, _ := core.EvalPreparedBall(q, ball, v); ps != nil {
						t.Fatalf("n=%d seed=%d r=%d: pruned center %d actually matches", n, seed, radius, v)
					}
				}
			}
		}
	}
}

func TestCacheLifecycle(t *testing.T) {
	c := newCache(2)
	q := p(t, "node a A\nnode b B\nedge a b")
	inv := []int32{0, 1}
	res := &core.Result{}
	key := CacheKey("c|k1", 1, 0)

	if got, outcome := c.Get(key, 1); got != nil || outcome != OutcomeMiss {
		t.Fatalf("empty cache Get = %v, %q", got, outcome)
	}

	c.Put(key, q, inv, 1, 1, 100, []int32{3, 7}, []*core.PerfectSubgraph{{Center: 3}, {Center: 7}}, res)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}

	// Clean same-version lookup hits; an older snapshot must not see a
	// future entry.
	if got, outcome := c.Get(key, 1); outcome != OutcomeHit || got.Result != res {
		t.Fatalf("Get(v1) = %v, %q", got, outcome)
	}
	if got, outcome := c.Get(key, 0); got != nil || outcome != OutcomeMiss {
		t.Fatalf("Get(v0) = %v, %q — entries must not travel back in time", got, outcome)
	}

	// An invalidation marks pending centers; the next lookup is a refresh
	// carrying exactly the dirty ∩ anything set.
	c.invalidate(2, func(radius int) []int32 { return []int32{5, 7} })
	got, outcome := c.Get(key, 2)
	if outcome != OutcomeRefresh {
		t.Fatalf("post-invalidate Get = %q", outcome)
	}
	if len(got.Pending) != 2 || got.Pending[0] != 5 || got.Pending[1] != 7 {
		t.Fatalf("Pending = %v", got.Pending)
	}

	// A batch that dirtied nothing within the entry's radius leaves Pending
	// untouched; the version gap alone still demands a refresh (the engine
	// turns nil Pending into "re-evaluate nothing").
	c2 := newCache(2)
	c2.Put(key, q, inv, 1, 1, 100, nil, nil, res)
	c2.invalidate(2, func(radius int) []int32 { return nil })
	got, outcome = c2.Get(key, 2)
	if outcome != OutcomeRefresh || got.Pending != nil {
		t.Fatalf("version-gap Get = %q, Pending %v", outcome, got.Pending)
	}

	// Stores for versions older than the newest invalidation are rejected:
	// they could not have received that batch's pending marks.
	c2.Put(CacheKey("c|k2", 1, 0), q, inv, 1, 1, 100, nil, nil, res)
	if c2.Len() != 1 {
		t.Fatalf("stale Put accepted, Len = %d", c2.Len())
	}

	// Accumulated pending beyond half the graph drops the entry outright.
	c3 := newCache(2)
	c3.Put(key, q, inv, 1, 1, 4, nil, nil, res)
	c3.invalidate(2, func(radius int) []int32 { return []int32{0, 1, 2} })
	if c3.Len() != 0 {
		t.Fatalf("oversized pending kept the entry, Len = %d", c3.Len())
	}

	// LRU: capacity 2, touching k1 keeps it alive past a third insert.
	c4 := newCache(2)
	k1, k2, k3 := CacheKey("c|k1", 1, 0), CacheKey("c|k2", 1, 0), CacheKey("c|k3", 1, 0)
	c4.Put(k1, q, inv, 1, 1, 100, nil, nil, res)
	c4.Put(k2, q, inv, 1, 1, 100, nil, nil, res)
	c4.Get(k1, 1)
	c4.Put(k3, q, inv, 1, 1, 100, nil, nil, res)
	if _, outcome := c4.Get(k1, 1); outcome != OutcomeHit {
		t.Errorf("recently used k1 evicted")
	}
	if _, outcome := c4.Get(k2, 1); outcome != OutcomeMiss {
		t.Errorf("LRU victim k2 survived")
	}
}

func TestFindContaining(t *testing.T) {
	c := newCache(8)
	qBig := p(t, "node a1 A\nnode b B\nnode a2 A\nedge a1 b\nedge a2 b")
	qSmall := p(t, "node a A\nnode b B\nedge a b")
	res := &core.Result{}

	c.Put(CacheKey("c|big", 2, 0), qBig, []int32{0, 1, 2}, 2, 1, 100,
		[]int32{4, 9}, []*core.PerfectSubgraph{{Center: 4}, {Center: 9}}, res)

	// Contained, radius subsumed (2 >= 1): the entry bounds the evaluation.
	got := c.FindContaining(qSmall, 1, 1)
	if got == nil || len(got.Centers) != 2 {
		t.Fatalf("FindContaining = %v", got)
	}
	// A larger query radius than the entry's is not subsumed.
	if got := c.FindContaining(qSmall, 3, 1); got != nil {
		t.Fatal("radius 3 served from a radius-2 entry")
	}
	// A stale (pending) entry must not answer containment lookups.
	c.invalidate(2, func(radius int) []int32 { return []int32{4} })
	if got := c.FindContaining(qSmall, 1, 2); got != nil {
		t.Fatal("pending entry served a containment lookup")
	}
	// Label-set prefilter: disjoint label names can never contain.
	cc := newCache(8)
	cc.Put(CacheKey("c|big", 2, 0), qBig, []int32{0, 1, 2}, 2, 1, 100, nil, nil, res)
	if got := cc.FindContaining(p(t, "node a A\nnode c C\nedge a c"), 1, 1); got != nil {
		t.Fatal("label-disjoint query matched a cached entry")
	}
}
