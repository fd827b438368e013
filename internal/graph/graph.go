package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable node-labeled directed graph. Nodes are dense int32
// identifiers in [0, NumNodes()). Construct graphs with a Builder.
//
// Both forward and reverse adjacency are stored as paged CSR of gap-encoded
// rows (see CSR), every row sorted: a row costs about as many bytes as its
// gaps need, AppendOut and AppendIn decode one into the caller's buffer,
// OutDegree and InDegree are O(1), and HasEdge scans one row. An index from
// label to the sorted list of nodes carrying it supports the candidate
// initialization step of every matching algorithm (line 2 of procedure
// DualSim in the paper's Fig. 3); beside each list it keeps its nodes'
// neighbour-label signatures (SigRow), the check that initialization puts
// in front of reading a candidate's adjacency.
type Graph struct {
	labels   *Labels
	nodeLbl  []int32 // node -> label id
	out      CSR     // node -> sorted successors
	in       CSR     // node -> sorted predecessors
	numEdges int
	// The label index: lblAt, indexed by label id (labels are dense interned
	// ids), holds the position in rows of each label's sorted nodes and their
	// signatures; rows[0] is the empty row of every label without nodes, and
	// a label past lblAt's end has none. The graphs a BallScratch builds fill
	// both per ball, without hashing or allocation, and carry no signatures.
	lblAt []int32
	rows  []labelRow
	// rank[v] is v's index within NodesWithLabel(Label(v)). A per-query
	// structure that holds one slot per candidate of a pattern node (the
	// simulation refiner's counters) addresses v's slot by it, so its size
	// follows the label rows the query names, not |V|.
	rank []int32
	name string
	// sigPagesCopied is what FromParts copied of its predecessor's
	// signature pages (SigPagesCopied).
	sigPagesCopied int
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges are tolerated and collapsed at Build time (the paper's
// graphs are simple); self-loops are permitted.
type Builder struct {
	labels *Labels
	// shared marks labels as a table the builder reads and never writes
	// (NewSharedBuilder).
	shared  bool
	nodeLbl []int32
	edges   [][2]int32
	names   map[string]int32 // optional symbolic node names
	name    string
}

// NewBuilder returns a Builder interning labels into labels. Passing nil
// creates a fresh table; pattern and data graphs that will be matched
// against each other must share one table.
func NewBuilder(labels *Labels) *Builder {
	if labels == nil {
		labels = NewLabels()
	}
	return &Builder{labels: labels, names: make(map[string]int32)}
}

// NewSharedBuilder returns a Builder that reads labels and never writes it:
// a label the table knows costs a map read, and the first one it does not
// know is interned into a clone of the table, made then. Request patterns
// built this way against a data graph's table — which concurrent requests
// share and must not write — cost no copy of it unless they name a label the
// graph does not have. A nil labels is a fresh table, as for NewBuilder.
func NewSharedBuilder(labels *Labels) *Builder {
	b := NewBuilder(labels)
	b.shared = labels != nil
	return b
}

// SetName attaches a human-readable graph name used in String().
func (b *Builder) SetName(name string) { b.name = name }

// AddNode appends a node with the given label and returns its id.
func (b *Builder) AddNode(label string) int32 {
	id := int32(len(b.nodeLbl))
	if b.shared && b.labels.ID(label) == NoLabel {
		b.labels, b.shared = b.labels.Clone(), false
	}
	b.nodeLbl = append(b.nodeLbl, b.labels.Intern(label))
	return id
}

// AddNamedNode appends a node addressable by a symbolic name (used by the
// text format and hand-built paper examples). Re-adding an existing name
// returns the original id without creating a node.
func (b *Builder) AddNamedNode(name, label string) int32 {
	if id, ok := b.names[name]; ok {
		return id
	}
	id := b.AddNode(label)
	b.names[name] = id
	return id
}

// Node returns the id bound to a symbolic name, or -1.
func (b *Builder) Node(name string) int32 {
	if id, ok := b.names[name]; ok {
		return id
	}
	return -1
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodeLbl) }

// AddEdge records the directed edge (u, v).
func (b *Builder) AddEdge(u, v int32) error {
	n := int32(len(b.nodeLbl))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node (have %d nodes)", u, v, n)
	}
	b.edges = append(b.edges, [2]int32{u, v})
	return nil
}

// AddNamedEdge records an edge between two symbolic names, creating the
// endpoints with the given labels if necessary.
func (b *Builder) AddNamedEdge(uName, uLabel, vName, vLabel string) {
	u := b.AddNamedNode(uName, uLabel)
	v := b.AddNamedNode(vName, vLabel)
	// Endpoints exist by construction, so AddEdge cannot fail.
	_ = b.AddEdge(u, v)
}

// Build freezes the accumulated nodes and edges into an immutable Graph.
func (b *Builder) Build() *Graph {
	n := len(b.nodeLbl)
	g := &Graph{
		labels:  b.labels,
		nodeLbl: append([]int32(nil), b.nodeLbl...),
		rank:    make([]int32, n),
		name:    b.name,
	}
	g.out, g.in, g.numEdges = b.adjacency()
	g.lblAt, g.rows = indexLabels(g.nodeLbl, g.rank)
	g.indexSigs()
	return g
}

// adjacency returns b's edges, repeats collapsed, as out- and in-CSR and
// their count. Rows come out sorted without a comparison: the edges are
// grouped by source in the order they were added, which transposes to
// ascending in-rows with each repeat next to its original; those are
// collapsed, and transposing back gives ascending out-rows. The flat int32
// rows are transient: only their encoding is kept.
func (b *Builder) adjacency() (out, in CSR, m int) {
	n := len(b.nodeLbl)
	start := make([]int32, n+1)
	for _, e := range b.edges {
		start[e[0]+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	next := slices.Clone(start[:n])
	to := make([]int32, len(b.edges))
	for _, e := range b.edges {
		to[next[e[0]]] = e[1]
		next[e[0]]++
	}
	inStart, inTo := transpose(nil, nil, n, start, to)
	inTo = dedupRows(inStart, inTo)
	m = len(inTo)
	outStart, outTo := transpose(nil, nil, n, inStart, inTo)
	return pagedCSR(outStart, outTo), pagedCSR(inStart, inTo), m
}

// FromParts adopts pre-built graph internals as an immutable Graph without
// copying or validation. It exists for callers that maintain graph state in
// this exact representation already — internal/live publishes copy-on-write
// versions of a mutable store this way, sharing every adjacency page its
// batch left untouched (CSR) across versions instead of rebuilding
// O(|V|+|E|) state per update batch.
//
// The caller must guarantee the Builder invariants hold and that none of the
// arguments are mutated afterwards: out and in are per-node sorted,
// duplicate-free and mutually consistent adjacency, one row per node;
// byLabel maps label ids to the ascending node ids carrying them (exactly
// the nodes v with nodeLbl[v] = id); numEdges is the total length of out. Graphs violating
// the contract misbehave in every algorithm of this repository; prefer a
// Builder anywhere construction cost is not on a hot path.
//
// What is derived here — the label ranks (LabelRanks) and the neighbour-label
// signatures (SigRow) — a graph that follows prev by one update batch
// inherits from prev instead of deriving it again. With a nil prev, both are
// derived in full from nodeLbl and byLabel is not read. Otherwise byLabel
// holds only the rows that differ from prev's (a node added, removed or
// moved; an emptied row as an empty list), d names what else the batch
// changed, and the rank array is shared outright when no row differs, or
// copied once (grown for added nodes) and rewritten for the changed rows
// alone — a node's rank changes only when its own row does. Signatures are
// patched over the batch's neighbourhood (see patchedRows).
func FromParts(labels *Labels, nodeLbl []int32, out, in CSR, byLabel map[int32][]int32, numEdges int, name string, prev *Graph, d Delta) *Graph {
	g := &Graph{
		labels:   labels,
		nodeLbl:  nodeLbl,
		out:      out,
		in:       in,
		numEdges: numEdges,
		name:     name,
	}
	switch {
	case prev == nil:
		g.rank = make([]int32, len(nodeLbl))
		g.lblAt, g.rows = indexLabels(nodeLbl, g.rank)
		g.indexSigs()
		return g
	case len(byLabel) == 0:
		g.rank = prev.rank
	default:
		g.rank = make([]int32, len(nodeLbl))
		copy(g.rank, prev.rank)
	}
	for _, row := range byLabel {
		fillRanks(g.rank, row)
	}
	g.lblAt, g.rows, g.sigPagesCopied = g.patchedRows(prev, byLabel, d)
	return g
}

func fillRanks(rank, row []int32) {
	for i, v := range row {
		rank[v] = int32(i)
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodeLbl) }

// NumEdges returns |E| after duplicate collapsing.
func (g *Graph) NumEdges() int { return g.numEdges }

// Size returns |V| + |E|, the paper's |G|.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// Name returns the graph's optional human-readable name.
func (g *Graph) Name() string { return g.name }

// Labels returns the intern table shared by this graph.
func (g *Graph) Labels() *Labels { return g.labels }

// Label returns the label id of node v.
func (g *Graph) Label(v int32) int32 { return g.nodeLbl[v] }

// LabelName returns the label string of node v.
func (g *Graph) LabelName(v int32) string { return g.labels.Name(g.nodeLbl[v]) }

// Out returns the sorted successors of v in a slice of its own. It
// allocates: a loop over many rows decodes them into one buffer of its own
// with AppendOut.
func (g *Graph) Out(v int32) []int32 { return g.out.AppendRow(nil, v) }

// In returns the sorted predecessors of v in a slice of its own; see Out.
func (g *Graph) In(v int32) []int32 { return g.in.AppendRow(nil, v) }

// AppendOut appends the sorted successors of v to dst and returns the
// extended slice.
func (g *Graph) AppendOut(dst []int32, v int32) []int32 { return g.out.AppendRow(dst, v) }

// AppendIn appends the sorted predecessors of v to dst and returns the
// extended slice.
func (g *Graph) AppendIn(dst []int32, v int32) []int32 { return g.in.AppendRow(dst, v) }

// Rows returns the whole out- and in-adjacency, one sorted row per node, as
// FromParts takes them. Everything behind them is shared with g.
func (g *Graph) Rows() (out, in CSR) { return g.out, g.in }

// OutDegree returns the number of successors of v, without decoding them.
func (g *Graph) OutDegree(v int32) int { return g.out.Degree(v) }

// InDegree returns the number of predecessors of v, without decoding them.
func (g *Graph) InDegree(v int32) int { return g.in.Degree(v) }

// Degree returns the undirected degree of v (in + out).
func (g *Graph) Degree(v int32) int { return g.out.Degree(v) + g.in.Degree(v) }

// HasEdge reports whether the directed edge (u, v) exists, by a scan of u's
// successors that stops at v.
func (g *Graph) HasEdge(u, v int32) bool { return g.out.Has(u, v) }

// NodesWithLabel returns the sorted nodes carrying label id, sharing the
// underlying slice.
func (g *Graph) NodesWithLabel(label int32) []int32 { return g.labelRow(label).nodes }

// NodeLabels returns every node's label id, indexed by node, as FromParts
// takes them. The slice is shared; callers must not mutate it.
func (g *Graph) NodeLabels() []int32 { return g.nodeLbl }

// LabelRanks returns, per node v, the index of v within
// NodesWithLabel(Label(v)). The slice is shared; callers must not mutate it.
func (g *Graph) LabelRanks() []int32 { return g.rank }

// NodesWithLabelName returns the nodes carrying the given label string.
func (g *Graph) NodesWithLabelName(name string) []int32 {
	id := g.labels.ID(name)
	if id == NoLabel {
		return nil
	}
	return g.NodesWithLabel(id)
}

// NodesLabeledIn returns the nodes of g whose label occurs in q: every data
// node that line 2 of procedure DualSim (Fig. 3, sim(u) = {v | l(v) = l(u)})
// can make a candidate of some pattern node. q and g must share one label
// table.
func (g *Graph) NodesLabeledIn(q *Graph) *NodeSet {
	set := NewNodeSet(g.NumNodes())
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		lbl := q.Label(u)
		if q.NodesWithLabel(lbl)[0] != u {
			continue // label already handled at its first pattern node
		}
		for _, v := range g.NodesWithLabel(lbl) {
			set.Add(v)
		}
	}
	return set
}

// Edges calls fn for every directed edge (u, v) in ascending (u, v) order.
func (g *Graph) Edges(fn func(u, v int32)) {
	row := make([]int32, 0, 16)
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		row = g.AppendOut(row[:0], u)
		for _, v := range row {
			fn(u, v)
		}
	}
}

// EdgeList materializes all edges in ascending (u, v) order.
func (g *Graph) EdgeList() [][2]int32 {
	out := make([][2]int32, 0, g.numEdges)
	g.Edges(func(u, v int32) { out = append(out, [2]int32{u, v}) })
	return out
}

// String summarizes the graph.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s(|V|=%d, |E|=%d, labels=%d)", name, g.NumNodes(), g.NumEdges(), g.labels.Len())
}

// InducedSubgraph returns the subgraph over the given original node ids with
// every edge of g whose endpoints both survive, re-indexed to [0, len(nodes)).
// The second result maps new ids back to original ids (a copy of nodes in
// sorted order); the third maps original ids to new ids for members.
func (g *Graph) InducedSubgraph(nodes []int32) (*Graph, []int32, map[int32]int32) {
	orig := slices.Clone(nodes)
	slices.Sort(orig)
	// Drop duplicates defensively.
	orig = slices.Compact(orig)
	toNew := make(map[int32]int32, len(orig))
	for i, v := range orig {
		toNew[v] = int32(i)
	}
	b := NewBuilder(g.labels)
	for _, v := range orig {
		b.AddNode(g.LabelName(v))
	}
	var row []int32
	for _, v := range orig {
		nv := toNew[v]
		row = g.AppendOut(row[:0], v)
		for _, w := range row {
			if nw, ok := toNew[w]; ok {
				_ = b.AddEdge(nv, nw)
			}
		}
	}
	sub := b.Build()
	return sub, orig, toNew
}
