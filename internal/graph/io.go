package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The text format is line oriented:
//
//	# comment
//	graph <name>          (optional, at most once)
//	node <id> <label>
//	edge <id> <id>
//
// Node ids are arbitrary tokens without whitespace. Nodes may also be
// declared implicitly by an edge line when their label equals their id;
// explicit node lines are required whenever labels differ from ids.

// Parse reads a graph in the text format, interning labels into labels
// (nil for a fresh table).
func Parse(r io.Reader, labels *Labels) (*Graph, error) {
	return parse(r, NewBuilder(labels))
}

// ParseShared parses a graph from an in-memory string without writing
// labels: it builds through NewSharedBuilder, so the graph shares the table
// unless it names a label the table lacks, and then owns a clone.
func ParseShared(s string, labels *Labels) (*Graph, error) {
	return parse(strings.NewReader(s), NewSharedBuilder(labels))
}

func parse(r io.Reader, b *Builder) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want 'graph <name>', got %q", lineNo, line)
			}
			b.SetName(fields[1])
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'node <id> <label>', got %q", lineNo, line)
			}
			b.AddNamedNode(fields[1], fields[2])
		case "edge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'edge <id> <id>', got %q", lineNo, line)
			}
			u := b.Node(fields[1])
			if u < 0 {
				u = b.AddNamedNode(fields[1], fields[1])
			}
			v := b.Node(fields[2])
			if v < 0 {
				v = b.AddNamedNode(fields[2], fields[2])
			}
			if err := b.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading input: %v", err)
	}
	return b.Build(), nil
}

// ParseString parses a graph from an in-memory string.
func ParseString(s string, labels *Labels) (*Graph, error) {
	return Parse(strings.NewReader(s), labels)
}

// MustParse parses a graph and panics on error. For tests and hand-written
// paper examples only.
func MustParse(s string, labels *Labels) *Graph {
	g, err := ParseString(s, labels)
	if err != nil {
		panic(err)
	}
	return g
}

// Format writes g in the text format. Node ids are written as n<index>, so
// Parse(Format(g)) reproduces g up to node naming.
func Format(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if g.Name() != "" {
		fmt.Fprintf(bw, "graph %s\n", g.Name())
	}
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(bw, "node n%d %s\n", v, g.LabelName(int32(v)))
	}
	g.Edges(func(u, v int32) {
		fmt.Fprintf(bw, "edge n%d n%d\n", u, v)
	})
	return bw.Flush()
}

// FormatString renders g in the text format.
func FormatString(g *Graph) string {
	var sb strings.Builder
	// strings.Builder never fails to write.
	_ = Format(&sb, g)
	return sb.String()
}
