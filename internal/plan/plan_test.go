package plan

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/graph"
)

// p builds a pattern from the text format with its own label table — Canon
// is label-name based, so independent tables must still collide correctly.
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

// TestContainedIn: the cache answers exact repeats only. Each pair below
// relates a new query to a cached pattern — contained in it (a surjective
// label-preserving homomorphism from the cached pattern onto the query) or
// not — and only the reflexive pair, the same pattern, may be served from
// the cached entry; every other query misses, contained or not.
func TestContainedIn(t *testing.T) {
	edge := "node a A\nnode b B\nedge a b"
	cases := []struct {
		name          string
		qNew, qCached string
	}{
		{"reflexive", edge, edge},
		{"two sources fold onto one",
			edge,
			"node a1 A\nnode b B\nnode a2 A\nedge a1 b\nedge a2 b"},
		{"looser cached pattern (subset of edges)",
			"node a1 A\nnode b B\nnode a2 A\nedge a1 b\nedge b a2",
			"node a A\nnode b B\nnode a2 A\nedge a b"},
		{"cached smaller than query",
			"node a1 A\nnode b B\nnode a2 A\nedge a1 b\nedge b a2",
			edge},
		{"label mismatch", edge, "node a A\nnode c C\nedge a c"},
		{"direction flipped", edge, "node a A\nnode b B\nedge b a"},
		{"cycle not contained in edge",
			edge,
			"node a A\nnode b B\nedge a b\nedge b a"},
		{"edge contained in cycle",
			"node a A\nnode b B\nedge a b\nedge b a",
			edge},
		{"self loop needs a self loop",
			edge,
			"node a A\nnode b B\nedge a b\nedge b b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qNew, qCached := p(t, tc.qNew), p(t, tc.qCached)
			kCached, _ := Canon(qCached)
			kNew, _ := Canon(qNew)
			c := newCache(8)
			res := &core.Result{}
			c.Put(CacheKey(kCached, 2, 0), nil, 1, res)
			got, outcome := c.Get(CacheKey(kNew, 2, 0), 1)
			if want := tc.qNew == tc.qCached; (outcome == OutcomeHit) != want || (got != nil) != want {
				t.Fatalf("Get = %v, %q; a hit only for the same pattern (%v)", got, outcome, want)
			}
			if got := c.FindContaining(qNew, 1, 1); got != nil {
				t.Fatalf("FindContaining = %v, want nil", got)
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
					if ps, _ := core.EvalPreparedBallIn(q, ball, v, core.Options{}, nil, nil); ps != nil {
						t.Fatalf("n=%d seed=%d r=%d: pruned center %d actually matches", n, seed, radius, v)
					}
				}
			}
		}
	}
}

func TestCacheLifecycle(t *testing.T) {
	c := newCache(2)
	inv := []int32{0, 1}
	res := &core.Result{}
	key := CacheKey("c|k1", 1, 0)

	if got, outcome := c.Get(key, 1); got != nil || outcome != OutcomeMiss {
		t.Fatalf("empty cache Get = %v, %q", got, outcome)
	}

	c.Put(key, inv, 1, res)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}

	// A same-version lookup hits; an older snapshot must not see a future
	// entry.
	if got, outcome := c.Get(key, 1); outcome != OutcomeHit || got.Result != res {
		t.Fatalf("Get(v1) = %v, %q", got, outcome)
	}
	if got, outcome := c.Get(key, 0); got != nil || outcome != OutcomeMiss {
		t.Fatalf("Get(v0) = %v, %q — entries must not travel back in time", got, outcome)
	}

	// An entry lives for exactly its version: a lookup at the next version
	// misses and empties the cache.
	if got, outcome := c.Get(key, 2); got != nil || outcome != OutcomeMiss {
		t.Fatalf("Get(v2) of a v1 entry = %v, %q", got, outcome)
	}
	if c.Len() != 0 {
		t.Fatalf("a newer version kept %d entries", c.Len())
	}

	// The cache has moved on: a store computed on the old version is
	// rejected, since nothing at that version can be looked up any more.
	c.Put(key, inv, 1, res)
	if c.Len() != 0 {
		t.Fatalf("stale Put accepted, Len = %d", c.Len())
	}
	if _, outcome := c.Get(key, 1); outcome != OutcomeMiss {
		t.Fatalf("stale Put served at its version: %q", outcome)
	}

	// LRU: capacity 2, touching k1 keeps it alive past a third insert.
	lru := newCache(2)
	k1, k2, k3 := CacheKey("c|k1", 1, 0), CacheKey("c|k2", 1, 0), CacheKey("c|k3", 1, 0)
	lru.Put(k1, inv, 1, res)
	lru.Put(k2, inv, 1, res)
	lru.Get(k1, 1)
	lru.Put(k3, inv, 1, res)
	if _, outcome := lru.Get(k1, 1); outcome != OutcomeHit {
		t.Errorf("recently used k1 evicted")
	}
	if _, outcome := lru.Get(k2, 1); outcome != OutcomeMiss {
		t.Errorf("LRU victim k2 survived")
	}
}

// TestCacheEntriesGauge: plan_cache_entries is one process-wide gauge, so
// with several planners it must read the sum of their entries — every
// insert, eviction and version change moves it by its own delta.
func TestCacheEntriesGauge(t *testing.T) {
	base := cacheEntries.Value()
	res := &core.Result{}
	a, b := NewPlanner().Cache(), NewPlanner().Cache()
	b.max = 2
	a.Put(CacheKey("c|a1", 1, 0), nil, 0, res)
	a.Put(CacheKey("c|a1", 1, 0), nil, 0, res) // an overwrite adds nothing
	// b holds two at most: the third insert evicts the first.
	for _, k := range []string{"c|b1", "c|b2", "c|b3"} {
		b.Put(CacheKey(k, 1, 0), nil, 0, res)
	}
	if got := cacheEntries.Value() - base; got != 3 {
		t.Fatalf("gauge reads %d over two planners holding 1 + 2 entries", got)
	}
	b.Get(CacheKey("c|b1", 1, 0), 1) // a newer version empties b
	if got := cacheEntries.Value() - base; got != 1 {
		t.Fatalf("gauge reads %d after b moved to a new version, want a's 1", got)
	}
}

// TestFindContaining: a cached pattern that contains the query, at a radius
// that subsumes the query's, serves it nothing. FindContaining returns nil
// and the exact-key lookup misses, while the entry still serves its own
// exact repeat.
func TestFindContaining(t *testing.T) {
	c := newCache(8)
	qBig := p(t, "node a1 A\nnode b B\nnode a2 A\nedge a1 b\nedge a2 b")
	qSmall := p(t, "node a A\nnode b B\nedge a b")
	kBig, _ := Canon(qBig)
	kSmall, _ := Canon(qSmall)
	res := &core.Result{}

	c.Put(CacheKey(kBig, 2, 0), []int32{0, 1, 2}, 1, res)
	if got := c.FindContaining(qSmall, 1, 1); got != nil {
		t.Fatalf("FindContaining = %v, want nil", got)
	}
	if got, outcome := c.Get(CacheKey(kSmall, 1, 0), 1); got != nil || outcome != OutcomeMiss {
		t.Fatalf("contained query Get = %v, %q, want a miss", got, outcome)
	}
	if got, outcome := c.Get(CacheKey(kBig, 2, 0), 1); outcome != OutcomeHit || got.Result != res {
		t.Fatalf("exact repeat Get = %v, %q, want a hit", got, outcome)
	}
}
