package api

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/graph"
)

// BoundAny is the edge bound matched by a directed path of any positive
// length (the "*" edges of bounded simulation).
const BoundAny = "*"

// boundAny is parseBound's value for BoundAny.
const boundAny = -1

// ErrBoundedEdge marks a pattern whose edges carry bounds other than 1.
// Such patterns are valid wire objects — the schema is shared with pattern
// classes beyond strong simulation — but cannot convert to a plain
// graph.Graph. Detect it with errors.Is.
var ErrBoundedEdge = errors.New("pattern has edge bounds other than 1")

// PatternJSON is the structured pattern schema of the /v1 endpoints: nodes
// carrying labels, directed edges carrying hop bounds. It replaces the
// opaque text blob the unversioned routes accepted (which /v1 still takes
// via the pattern_text field).
//
// Node ids are arbitrary non-empty strings, unique within the pattern; an
// omitted id defaults to "n<index>". Edges reference nodes by id. An edge
// bound is "1" or "" (a plain edge, matched by one data edge), a decimal
// k ≥ 2 (matched by a directed path of length 1..k), or "*" (matched by any
// non-empty directed path). The strong-simulation endpoints accept plain
// edges only and answer unsupported_bound otherwise; the schema carries the
// bounds so extended pattern classes target the same wire type.
type PatternJSON struct {
	// Name optionally names the pattern (the graph name of the text format).
	Name string `json:"name,omitempty"`
	// Nodes lists the pattern nodes. Node order is significant: the rel maps
	// of match responses key pattern nodes by their index here.
	Nodes []PatternNode `json:"nodes"`
	// Edges lists the directed pattern edges.
	Edges []PatternEdge `json:"edges,omitempty"`
}

// PatternNode is one pattern node.
type PatternNode struct {
	// ID identifies the node within the pattern; defaults to "n<index>".
	ID string `json:"id,omitempty"`
	// Label is the node label matched against data-node labels. Required.
	Label string `json:"label"`
}

// PatternEdge is one directed pattern edge from node U to node V.
type PatternEdge struct {
	U string `json:"u"`
	V string `json:"v"`
	// Bound is "" or "1" (plain edge), a decimal k ≥ 2, or "*".
	Bound string `json:"bound,omitempty"`
}

// nodeID returns the effective id of node i after defaulting.
func (p *PatternJSON) nodeID(i int) string {
	if p.Nodes[i].ID != "" {
		return p.Nodes[i].ID
	}
	return "n" + strconv.Itoa(i)
}

// parseBound maps a wire bound to a hop count: 1 for plain edges, k ≥ 2,
// or boundAny for "*".
func parseBound(s string) (int, error) {
	switch s {
	case "", "1":
		return 1, nil
	case BoundAny:
		return boundAny, nil
	}
	k, err := strconv.Atoi(s)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("bound %q: want \"1\", a decimal k >= 2, or %q", s, BoundAny)
	}
	return k, nil
}

// Validate checks the schema invariants: at least one node, non-empty
// labels, unique node ids, edges referencing declared nodes, well-formed
// bounds. Conversions run it implicitly.
func (p *PatternJSON) Validate() error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("pattern has no nodes")
	}
	ids := make(map[string]int, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.Label == "" {
			return fmt.Errorf("nodes[%d]: missing label", i)
		}
		id := p.nodeID(i)
		if prev, dup := ids[id]; dup {
			return fmt.Errorf("nodes[%d]: id %q already names nodes[%d]", i, id, prev)
		}
		ids[id] = i
	}
	for i, e := range p.Edges {
		if _, ok := ids[e.U]; !ok {
			return fmt.Errorf("edges[%d]: unknown node id %q", i, e.U)
		}
		if _, ok := ids[e.V]; !ok {
			return fmt.Errorf("edges[%d]: unknown node id %q", i, e.V)
		}
		if _, err := parseBound(e.Bound); err != nil {
			return fmt.Errorf("edges[%d]: %v", i, err)
		}
	}
	return nil
}

// ToGraph validates the pattern and converts it to a graph.Graph, interning
// labels into labels (nil for a fresh table). Node i of the result is
// Nodes[i], so rel maps keyed by node index line up. Patterns with non-unit
// bounds fail with an error wrapping ErrBoundedEdge.
func (p *PatternJSON) ToGraph(labels *graph.Labels) (*graph.Graph, error) {
	for i, e := range p.Edges {
		if k, err := parseBound(e.Bound); err == nil && k != 1 {
			return nil, fmt.Errorf("edges[%d] (%s -> %s) has bound %q: %w", i, e.U, e.V, e.Bound, ErrBoundedEdge)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(labels)
	b.SetName(p.Name)
	idx := make(map[string]int32, len(p.Nodes))
	for i, n := range p.Nodes {
		idx[p.nodeID(i)] = b.AddNode(n.Label)
	}
	for _, e := range p.Edges {
		// Endpoints were validated; AddEdge cannot fail.
		_ = b.AddEdge(idx[e.U], idx[e.V])
	}
	return b.Build(), nil
}

// Text renders the pattern in the text format of internal/graph, the form
// live.Store.Register accepts. Bounded patterns
// cannot be rendered (the text format has no bound syntax) and fail with an
// error wrapping ErrBoundedEdge.
func (p *PatternJSON) Text() (string, error) {
	g, err := p.ToGraph(nil)
	if err != nil {
		return "", err
	}
	return graph.FormatString(g), nil
}

// FromGraph converts a pattern graph to its wire form: node i becomes
// Nodes[i] with id "n<i>", every edge is plain. FromGraph and ToGraph are
// inverse up to node naming: ToGraph(FromGraph(g)) reproduces g's labels
// and edge set exactly.
func FromGraph(g *graph.Graph) *PatternJSON {
	p := &PatternJSON{
		Name:  g.Name(),
		Nodes: make([]PatternNode, g.NumNodes()),
	}
	for v := 0; v < g.NumNodes(); v++ {
		p.Nodes[v] = PatternNode{ID: "n" + strconv.Itoa(v), Label: g.LabelName(int32(v))}
	}
	g.Edges(func(u, v int32) {
		p.Edges = append(p.Edges, PatternEdge{
			U: "n" + strconv.Itoa(int(u)),
			V: "n" + strconv.Itoa(int(v)),
		})
	})
	return p
}
