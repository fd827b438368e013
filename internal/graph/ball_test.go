package graph

import (
	"reflect"
	"sort"
	"testing"
)

// chain builds 0 -> 1 -> 2 -> ... -> n-1 with label X everywhere.
func chain(t testing.TB, n int) *Graph {
	b := NewBuilder(nil)
	for i := 0; i < n; i++ {
		b.AddNode("X")
	}
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(int32(i), int32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBallChain(t *testing.T) {
	g := chain(t, 10)
	ball := NewBall(g, 5, 2)
	if got := ball.Orig; !reflect.DeepEqual(got, []int32{3, 4, 5, 6, 7}) {
		t.Fatalf("ball nodes = %v, want [3..7]", got)
	}
	if ball.Radius != 2 {
		t.Fatalf("Radius = %d", ball.Radius)
	}
	if ball.Orig[ball.Center] != 5 {
		t.Fatalf("center maps to %d, want 5", ball.Orig[ball.Center])
	}
	// Edges induced: 3->4, 4->5, 5->6, 6->7.
	if ball.G.NumEdges() != 4 {
		t.Fatalf("ball edges = %d, want 4", ball.G.NumEdges())
	}
	var borders []int32
	for _, v := range borderNodes(ball) {
		borders = append(borders, ball.Orig[v])
	}
	sort.Slice(borders, func(i, j int) bool { return borders[i] < borders[j] })
	if !reflect.DeepEqual(borders, []int32{3, 7}) {
		t.Fatalf("border nodes = %v, want [3 7]", borders)
	}
}

func TestBallUsesUndirectedDistance(t *testing.T) {
	// 0 <- 1 -> 2 : ball around 0 with radius 2 must include 2 via the
	// undirected path 0-1-2 even though no directed path exists.
	b := NewBuilder(nil)
	for i := 0; i < 3; i++ {
		b.AddNode("X")
	}
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	ball := NewBall(g, 0, 2)
	if ball.NumNodes() != 3 {
		t.Fatalf("ball nodes = %d, want 3", ball.NumNodes())
	}
	if d := ball.Dist[ball.ToBall(2)]; d != 2 {
		t.Fatalf("dist(0,2) in ball = %d, want 2", d)
	}
}

func TestBallRadiusZero(t *testing.T) {
	g := chain(t, 4)
	ball := NewBall(g, 2, 0)
	if ball.NumNodes() != 1 || ball.Orig[0] != 2 {
		t.Fatalf("radius-0 ball = %v", ball.Orig)
	}
	if !ball.IsBorder(0) {
		t.Fatal("center of a radius-0 ball is its own border")
	}
}

func TestBallCoversComponentWhenRadiusLarge(t *testing.T) {
	g := chain(t, 6)
	ball := NewBall(g, 0, 100)
	if ball.NumNodes() != 6 {
		t.Fatalf("ball should cover the whole component, got %d nodes", ball.NumNodes())
	}
	if len(borderNodes(ball)) != 0 {
		t.Fatalf("no node sits at distance 100; border = %v", borderNodes(ball))
	}
}

func TestBallExcludesOtherComponents(t *testing.T) {
	b := NewBuilder(nil)
	for i := 0; i < 4; i++ {
		b.AddNode("X")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	ball := NewBall(g, 0, 5)
	if ball.NumNodes() != 2 {
		t.Fatalf("ball leaked into another component: %v", ball.Orig)
	}
	if ball.ToBall(2) != -1 {
		t.Fatal("ToBall should be -1 for nodes outside the ball")
	}
}

func TestBallIncludesAllInducedEdges(t *testing.T) {
	// Triangle 0->1->2->0 plus chord 0->2; ball radius 1 around 0 includes
	// every node and thus every edge.
	b := NewBuilder(nil)
	for i := 0; i < 3; i++ {
		b.AddNode("X")
	}
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ball := NewBall(g, 0, 1)
	if ball.G.NumEdges() != 4 {
		t.Fatalf("ball edges = %d, want all 4 induced edges", ball.G.NumEdges())
	}
}

// borderNodes returns the ball ids of all border nodes, ascending.
func borderNodes(b *Ball) []int32 {
	var out []int32
	for v := range b.Dist {
		if b.IsBorder(v) {
			out = append(out, int32(v))
		}
	}
	return out
}
