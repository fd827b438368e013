package graph

import (
	"reflect"
	"testing"
)

func TestDistancesChain(t *testing.T) {
	g := chain(t, 5)
	got := Distances(g, 2)
	if !reflect.DeepEqual(got, []int32{2, 1, 0, 1, 2}) {
		t.Fatalf("Distances = %v", got)
	}
	if d := Dist(g, 0, 4); d != 4 {
		t.Fatalf("Dist(0,4) = %d, want 4", d)
	}
	if d := Dist(g, 3, 3); d != 0 {
		t.Fatalf("Dist(3,3) = %d, want 0", d)
	}
}

func TestDistancesDisconnected(t *testing.T) {
	b := NewBuilder(nil)
	b.AddNode("X")
	b.AddNode("X")
	g := b.Build()
	if d := Dist(g, 0, 1); d != -1 {
		t.Fatalf("Dist across components = %d, want -1", d)
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name  string
		build func(t testing.TB) *Graph
		want  int
		ok    bool
	}{
		{"chain5", func(t testing.TB) *Graph { return chain(t, 5) }, 4, true},
		{"diamond", func(t testing.TB) *Graph { return buildDiamond(t) }, 2, true},
		{"empty", func(t testing.TB) *Graph { return NewBuilder(nil).Build() }, 0, true},
		{"disconnected", func(t testing.TB) *Graph {
			b := NewBuilder(nil)
			b.AddNode("X")
			b.AddNode("X")
			return b.Build()
		}, 0, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d, ok := Diameter(tc.build(t))
			if ok != tc.ok || (ok && d != tc.want) {
				t.Fatalf("Diameter = (%d,%v), want (%d,%v)", d, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestDiameterTwoNodeCycle(t *testing.T) {
	// AI ⇄ DM: diameter 1 (undirected distance collapses the pair).
	b := NewBuilder(nil)
	u := b.AddNode("AI")
	v := b.AddNode("DM")
	if err := b.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(v, u); err != nil {
		t.Fatal(err)
	}
	d, ok := Diameter(b.Build())
	if !ok || d != 1 {
		t.Fatalf("Diameter = (%d,%v), want (1,true)", d, ok)
	}
}
