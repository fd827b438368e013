package shard

import (
	"repro/api"
	"repro/internal/graph"
	"repro/internal/live"
)

// deletedPlaceholder is the label a node already deleted on the
// authoritative graph is added under before a replica deletes it again, so
// node ids line up. Like live.TombstoneLabel it contains a NUL, so no pattern
// can name it.
const deletedPlaceholder = "\x00pushed deleted node"

// InitialBatches builds the /v1/update batches that bring an empty replica
// to a copy of g: every node in id order under its label (deleted nodes
// under deletedPlaceholder, then deleted again so tombstone state aligns),
// then every edge. Batches carry at most chunk mutations each (chunk ≤ 0
// means one batch); node additions always precede the edges that reference
// them because mutations are emitted in that order and chunking preserves
// it.
func InitialBatches(g *graph.Graph, chunk int) [][]api.MutationJSON {
	tomb := g.Labels().ID(live.TombstoneLabel) // graph.NoLabel before any deletion
	n := int32(g.NumNodes())
	muts := make([]api.MutationJSON, 0, g.NumNodes()+g.NumEdges())
	var deadNodes []int32
	for v := int32(0); v < n; v++ {
		if tomb != graph.NoLabel && g.Label(v) == tomb {
			muts = append(muts, api.AddNode(deletedPlaceholder))
			deadNodes = append(deadNodes, v)
			continue
		}
		muts = append(muts, api.AddNode(g.LabelName(v)))
	}
	for _, v := range deadNodes {
		muts = append(muts, api.DeleteNode(v))
	}
	g.Edges(func(u, v int32) {
		muts = append(muts, api.InsertEdge(u, v))
	})
	return chunkMutations(muts, chunk)
}

func chunkMutations(muts []api.MutationJSON, chunk int) [][]api.MutationJSON {
	if len(muts) == 0 {
		return nil
	}
	if chunk <= 0 {
		return [][]api.MutationJSON{muts}
	}
	out := make([][]api.MutationJSON, 0, (len(muts)+chunk-1)/chunk)
	for len(muts) > chunk {
		out = append(out, muts[:chunk])
		muts = muts[chunk:]
	}
	return append(out, muts)
}
