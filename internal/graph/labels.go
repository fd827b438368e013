// Package graph provides the node-labeled directed graph substrate used by
// every matching algorithm in this repository: compact adjacency storage,
// label interning, balls Ĝ[v,r], connectivity, cycles, diameters, subgraph
// extraction and a line-oriented text format.
//
// Graphs follow the definitions of Ma et al., "Capturing Topology in Graph
// Pattern Matching" (PVLDB 2011), Section 2.1: a graph G(V, E, l) has a
// finite node set V, a directed edge set E ⊆ V×V and a labeling function l
// mapping each node to a label from a (possibly infinite) alphabet Σ.
package graph

import "fmt"

// NoLabel is returned by Labels.ID for strings that were never interned.
const NoLabel int32 = -1

// Labels interns label strings to dense int32 identifiers so that graphs
// store one int32 per node and label comparisons are integer comparisons.
// A Labels table may be shared by a pattern graph and a data graph; sharing
// is required for matching, since matching compares label identifiers.
//
// Labels is not safe for concurrent mutation. Once all labels are interned
// (after graph construction) concurrent reads are safe.
type Labels struct {
	byName map[string]int32
	names  []string
}

// NewLabels returns an empty intern table.
func NewLabels() *Labels {
	return &Labels{byName: make(map[string]int32)}
}

// Intern returns the identifier for name, assigning the next free identifier
// if name has not been seen before.
func (l *Labels) Intern(name string) int32 {
	if id, ok := l.byName[name]; ok {
		return id
	}
	id := int32(len(l.names))
	l.byName[name] = id
	l.names = append(l.names, name)
	return id
}

// Clone returns an independent copy of the intern table that assigns the
// same identifiers to every label interned so far. Graphs built against the
// clone remain label-compatible with graphs built against the original, and
// labels interned into the clone afterwards do not touch the original —
// which is how concurrent servers parse request patterns against a shared,
// otherwise-immutable data-graph table without synchronization.
func (l *Labels) Clone() *Labels {
	c := &Labels{
		byName: make(map[string]int32, len(l.byName)),
		names:  append([]string(nil), l.names...),
	}
	for name, id := range l.byName {
		c.byName[name] = id
	}
	return c
}

// ID returns the identifier for name, or NoLabel if name was never interned.
func (l *Labels) ID(name string) int32 {
	if id, ok := l.byName[name]; ok {
		return id
	}
	return NoLabel
}

// Name returns the string for a label identifier.
func (l *Labels) Name(id int32) string {
	if id < 0 || int(id) >= len(l.names) {
		return fmt.Sprintf("?label%d", id)
	}
	return l.names[id]
}

// Len returns the number of distinct labels interned so far.
func (l *Labels) Len() int { return len(l.names) }
