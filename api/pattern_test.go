package api

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
)

// TestPatternRoundTripProperty checks the FromGraph/ToGraph inverse over a
// spread of generated graphs: labels per node and the exact edge set
// survive a trip through the wire schema, and a second trip is a fixed
// point.
func TestPatternRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		g := generator.SamplePattern(
			generator.Synthetic(200, 1.2, 8, seed),
			generator.PatternOptions{Nodes: 2 + int(seed%5), Alpha: 1.3, Seed: seed * 7},
		)
		p := FromGraph(g)
		got, err := p.ToGraph(nil)
		if err != nil {
			t.Fatalf("seed %d: ToGraph(FromGraph(g)): %v", seed, err)
		}
		if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: size (%d,%d) -> (%d,%d)", seed,
				g.NumNodes(), g.NumEdges(), got.NumNodes(), got.NumEdges())
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if got.LabelName(v) != g.LabelName(v) {
				t.Fatalf("seed %d: node %d label %q -> %q", seed, v, g.LabelName(v), got.LabelName(v))
			}
		}
		if !reflect.DeepEqual(got.EdgeList(), g.EdgeList()) {
			t.Fatalf("seed %d: edge sets diverge", seed)
		}
		// The wire form itself is a fixed point of the round trip.
		if again := FromGraph(got); !reflect.DeepEqual(again, p) {
			t.Fatalf("seed %d: FromGraph not stable across round trip:\n%+v\n%+v", seed, p, again)
		}
	}
}

// TestPatternTextRoundTrip proves the schema and the text format describe
// the same pattern: parsing Text() reproduces the structure.
func TestPatternTextRoundTrip(t *testing.T) {
	p := &PatternJSON{
		Name: "q",
		Nodes: []PatternNode{
			{ID: "a", Label: "HR"}, {ID: "b", Label: "SE"}, {Label: "DM"},
		},
		Edges: []PatternEdge{{U: "a", V: "b"}, {U: "b", V: "a"}, {U: "a", V: "n2", Bound: "1"}},
	}
	text, err := p.Text()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ParseString(text, nil)
	if err != nil {
		t.Fatalf("Text() does not parse: %v\n%s", err, text)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 || g.Name() != "q" {
		t.Fatalf("parsed %v from\n%s", g, text)
	}
}

func TestPatternValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    PatternJSON
		want string
	}{
		{"no nodes", PatternJSON{}, "no nodes"},
		{"missing label", PatternJSON{Nodes: []PatternNode{{ID: "a"}}}, "missing label"},
		{"duplicate ids", PatternJSON{Nodes: []PatternNode{{ID: "a", Label: "X"}, {ID: "a", Label: "Y"}}}, "already names"},
		{"default id collision", PatternJSON{Nodes: []PatternNode{{ID: "n1", Label: "X"}, {Label: "Y"}}}, "already names"},
		{"unknown edge source", PatternJSON{
			Nodes: []PatternNode{{ID: "a", Label: "X"}},
			Edges: []PatternEdge{{U: "zz", V: "a"}},
		}, `unknown node id "zz"`},
		{"unknown edge target", PatternJSON{
			Nodes: []PatternNode{{ID: "a", Label: "X"}},
			Edges: []PatternEdge{{U: "a", V: "zz"}},
		}, `unknown node id "zz"`},
		{"zero bound", PatternJSON{
			Nodes: []PatternNode{{ID: "a", Label: "X"}},
			Edges: []PatternEdge{{U: "a", V: "a", Bound: "0"}},
		}, "bound"},
		{"junk bound", PatternJSON{
			Nodes: []PatternNode{{ID: "a", Label: "X"}},
			Edges: []PatternEdge{{U: "a", V: "a", Bound: "lots"}},
		}, "bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestPatternBounds(t *testing.T) {
	p := &PatternJSON{
		Nodes: []PatternNode{{ID: "a", Label: "X"}, {ID: "b", Label: "Y"}, {ID: "c", Label: "Z"}},
		Edges: []PatternEdge{
			{U: "a", V: "b", Bound: "3"},
			{U: "b", V: "c", Bound: BoundAny},
			{U: "a", V: "c"},
		},
	}
	// Plain conversion refuses, naming the bounded edge.
	if _, err := p.ToGraph(nil); !errors.Is(err, ErrBoundedEdge) {
		t.Fatalf("ToGraph = %v, want ErrBoundedEdge", err)
	}
	if _, err := p.Text(); !errors.Is(err, ErrBoundedEdge) {
		t.Fatalf("Text = %v, want ErrBoundedEdge", err)
	}
}

func TestPatternDefaultsAndOrder(t *testing.T) {
	// Omitted ids default to n<index>, and node order defines the graph
	// ids (hence the rel keys of match responses).
	p := &PatternJSON{
		Nodes: []PatternNode{{Label: "X"}, {Label: "Y"}},
		Edges: []PatternEdge{{U: "n0", V: "n1"}},
	}
	g, err := p.ToGraph(nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.LabelName(0) != "X" || g.LabelName(1) != "Y" || !g.HasEdge(0, 1) {
		t.Fatalf("defaulted pattern built wrong graph: %v", g)
	}
}
