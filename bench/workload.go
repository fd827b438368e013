package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/api"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/plan"
)

type opKind uint8

const (
	opMatch opKind = iota
	opUpdate
	opPoll
)

var opNames = [...]string{"match", "update", "poll"}

// op is one pre-generated request: a match names its pattern by pool index,
// a poll its standing query by slot; an update takes the issuing client's
// next churn batch.
type op struct {
	Kind opKind
	Idx  int32
}

// warmOps is the prefix of every client's sequence that only the warm-up
// issues; the measured phase cycles through the rest.
const warmOps = 256

// workload is everything the server will ever be sent, generated from the
// seed before any timing starts.
type workload struct {
	spec   workloadSpec
	g      *graph.Graph
	reqs   []api.MatchRequest // the pattern pool, as requests
	ops    [clients][]op
	churn  [clients]churner
	sample []op    // replayed by the traced pass, in order, by one client
	sampCh churner // update batches of the traced sample
	genS   float64
}

// newWorkload builds the graph and the request sequences. Nothing here
// depends on the workload's name, so sharded-plus sends exactly what
// adhoc-plus sends.
func newWorkload(spec workloadSpec, nodes int, seed int64, smoke bool) (*workload, error) {
	start := time.Now()
	if smoke {
		spec.Pool = max(64, spec.Pool/16)
		spec.Sample = max(16, spec.Sample/8)
	}
	w := &workload{spec: spec, g: generator.Synthetic(nodes, graphAlpha, graphLabels, seed)}
	rng := rand.New(rand.NewSource(seed))

	seen := make(map[string]bool, spec.Pool)
	for tries := 0; len(w.reqs) < spec.Pool; tries++ {
		if tries > 64*spec.Pool {
			return nil, fmt.Errorf("%s: only %d of %d distinct patterns after %d samples",
				spec.Name, len(w.reqs), spec.Pool, tries)
		}
		nodes := spec.MinNodes + len(w.reqs)%3
		q := generator.SamplePattern(w.g, generator.PatternOptions{
			Nodes: nodes, Alpha: graphAlpha, Seed: rng.Int63()})
		if d, connected := graph.Diameter(q); !connected || d > maxDiameter || q.NumNodes() != nodes {
			continue
		}
		if key, _ := plan.Canon(q); !seen[key] {
			seen[key] = true
			w.reqs = append(w.reqs, api.MatchRequest{
				Pattern: api.FromGraph(q), Query: api.QuerySpec{Mode: spec.Mode}})
		}
	}

	if spec.Churn {
		used := make(map[[2]int32]bool)
		for c := range w.ops {
			w.ops[c] = churnOps(rng, 1<<15, spec.Pool)
			w.churn[c] = newChurner(w.g, rng, used)
		}
		w.sample = churnOps(rng, spec.Sample, spec.Pool)
		w.sampCh = newChurner(w.g, rng, used)
	} else {
		// The tail of the pool is the traced sample; the clients interleave
		// over the rest, so no pattern is sent twice before the pool wraps.
		usable := spec.Pool - spec.Sample
		for i := 0; i < usable; i++ {
			w.ops[i%clients] = append(w.ops[i%clients], op{opMatch, int32(i)})
		}
		for i := usable; i < spec.Pool; i++ {
			w.sample = append(w.sample, op{opMatch, int32(i)})
		}
	}
	w.genS = time.Since(start).Seconds()
	return w, nil
}

// pattern rebuilds pool pattern i as a graph over the base graph's labels.
// Only the requests are kept: 4096 graphs would be live heap the server's
// collector has to mark on every cycle.
func (w *workload) pattern(i int32) *graph.Graph {
	q, err := w.reqs[i].Pattern.ToGraph(w.g.Labels().Clone())
	if err != nil {
		panic(err) // FromGraph's output always converts back
	}
	return q
}

// churnOps draws n ops at 70% match (zipf over the pool) / 20% update /
// 10% standing-delta poll. Popularity drifts: every churnDrift ops the zipf
// ranking moves on by one pattern, so that over a run many patterns take
// their turn as the hot one. With a fixed ranking the top pattern is 38% of
// all matches and match_p50_ms measures that one pattern's cost: 2.9 to 4.0
// ms across ten seeds.
func churnOps(rng *rand.Rand, n, pool int) []op {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(pool-1))
	ops := make([]op, n)
	for i := range ops {
		switch p := rng.Intn(10); {
		case p < 7:
			ops[i] = op{opMatch, int32((int(zipf.Uint64()) + i/churnDrift) % pool)}
		case p < 9:
			ops[i] = op{Kind: opUpdate}
		default:
			ops[i] = op{opPoll, int32(rng.Intn(standingN))}
		}
	}
	return ops
}

// churner hands one client its update batches. Batches alternate in runs of
// churnWindow: a run that inserts churnWindow fresh edge groups, then a run
// that deletes those same groups in the same order, so a delete follows its
// insert by exactly churnWindow batches, |E| stays within
// batchSize*churnWindow of the base per client, and every 2*churnWindow
// batches the client's edges are all gone again. Edges are uniform over the
// graph, absent from the base graph and disjoint between clients, so no
// batch can fail whatever the interleaving.
type churner struct {
	edges [][2]int32 // churnGroups groups of batchSize
	next  int        // batches issued so far
}

func newChurner(g *graph.Graph, rng *rand.Rand, used map[[2]int32]bool) churner {
	n := int32(g.NumNodes())
	c := churner{edges: make([][2]int32, 0, churnGroups*batchSize)}
	for len(c.edges) < cap(c.edges) {
		e := [2]int32{rng.Int31n(n), rng.Int31n(n)}
		if e[0] == e[1] || used[e] || g.HasEdge(e[0], e[1]) {
			continue
		}
		used[e] = true
		c.edges = append(c.edges, e)
	}
	return c
}

// batch returns the next batch and whether it inserts.
func (c *churner) batch() (edges [][2]int32, insert bool) {
	run, slot := c.next/churnWindow, c.next%churnWindow
	c.next++
	group := (run/2*churnWindow + slot) % churnGroups
	return c.edges[group*batchSize : (group+1)*batchSize], run%2 == 0
}

func (c *churner) mutations() []api.MutationJSON {
	edges, insert := c.batch()
	muts := make([]api.MutationJSON, len(edges))
	for i, e := range edges {
		if insert {
			muts[i] = api.InsertEdge(e[0], e[1])
		} else {
			muts[i] = api.DeleteEdge(e[0], e[1])
		}
	}
	return muts
}

// digest fingerprints everything newWorkload generated.
func (w *workload) digest() string {
	h := sha256.New()
	put := func(vs ...int32) {
		for _, v := range vs {
			_ = binary.Write(h, binary.LittleEndian, v)
		}
	}
	for _, r := range w.reqs {
		b, _ := json.Marshal(r)
		h.Write(b)
	}
	seqs := append(w.ops[:], w.sample)
	for _, seq := range seqs {
		for _, o := range seq {
			put(int32(o.Kind), o.Idx)
		}
	}
	for _, c := range append(w.churn[:], w.sampCh) {
		for _, e := range c.edges {
			put(e[0], e[1])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
