package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// csrOf returns rows as a CSR, built through an edit of the empty one.
func csrOf(rows [][]int32) CSR {
	e := CSR{}.Edit()
	for v, row := range rows {
		e.Append()
		e.Set(int32(v), row)
	}
	c, _ := e.Freeze()
	return c
}

// rowsOf reads n rows of a CSR back into slices of their own.
func rowsOf(n int, appendRow func([]int32, int32) []int32) [][]int32 {
	rows := make([][]int32, n)
	for v := range rows {
		rows[v] = appendRow(nil, int32(v))
	}
	return rows
}

func sameRows(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }

// TestCSREditLeavesPredecessor drives chains of edits — rows grown, shrunk,
// emptied and given self-loops on every side of a page boundary, nodes
// appended at 0, 511, 512, 513 and 1025 and beyond, an edit abandoned midway
// — against a model of per-row slices, and holds every earlier CSR to the
// rows it read when it was frozen. An edit rebuilds only pages it wrote a
// row of.
func TestCSREditLeavesPredecessor(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 1025} {
		rng := rand.New(rand.NewSource(int64(n)))
		model := make([][]int32, n)
		for v := range model {
			for k := rng.Intn(6); k > 0; k-- {
				model[v] = append(model[v], rng.Int31n(int32(n)))
			}
			slices.Sort(model[v])
			model[v] = slices.Compact(model[v])
		}
		cur := csrOf(model)
		history := []CSR{cur}
		wants := [][][]int32{model}
		for step := 0; step < 40; step++ {
			e := cur.Edit()
			next := slices.Clone(model)
			written := map[int]bool{}
			appends := rng.Intn(3)
			if step == 0 {
				appends = 1 // the first node past the start: 0, 1, 511, 512, 513 or 1025
			}
			for ; appends > 0; appends-- {
				if len(next)&pageMask != 0 {
					written[len(next)>>pageBits] = true // the partial last page is rebuilt
				}
				e.Append()
				next = append(next, nil)
			}
			for k := rng.Intn(5); k > 0 && len(next) > 0; k-- {
				v := int32([]int{0, 510, 511, 512, 513, len(next) - 1, rng.Intn(len(next))}[rng.Intn(7)])
				if int(v) >= len(next) {
					continue
				}
				row := e.Own(v)
				switch rng.Intn(4) {
				case 0: // grow
					for j := rng.Intn(4) + 1; j > 0; j-- {
						w := rng.Int31n(int32(len(next)))
						if i, found := slices.BinarySearch(row, w); !found {
							row = slices.Insert(row, i, w)
						}
					}
				case 1: // shrink
					if len(row) > 0 {
						i := rng.Intn(len(row))
						row = slices.Delete(row, i, i+1)
					}
				case 2: // empty
					row = nil
				case 3: // self-loop
					if i, found := slices.BinarySearch(row, v); !found {
						row = slices.Insert(row, i, v)
					}
				}
				e.Set(v, row)
				next[v] = slices.Clone(row)
				written[int(v)>>pageBits] = true
			}
			if rng.Intn(4) == 0 {
				continue // abandoned: cur and model stand
			}
			frozen, rebuilt := e.Freeze()
			if !sameRows(rowsOf(frozen.Len(), frozen.AppendRow), next) {
				t.Fatalf("n=%d step %d: the frozen CSR reads differently from its model", n, step)
			}
			if rebuilt > len(written) {
				t.Fatalf("n=%d step %d: %d pages rebuilt, writes touched %d", n, step, rebuilt, len(written))
			}
			cur, model = frozen, next
			history, wants = append(history, cur), append(wants, model)
			for i, c := range history {
				if !sameRows(rowsOf(c.Len(), c.AppendRow), wants[i]) {
					t.Fatalf("n=%d step %d: CSR %d changed after it was frozen", n, step, i)
				}
			}
		}
	}
}

// TestBuilderFromPartsAcrossPages: on graphs whose node count sits on every
// side of a page boundary, a Builder graph, the same rows handed to FromParts
// and a per-node reference computed from the edge list agree on every row.
func TestBuilderFromPartsAcrossPages(t *testing.T) {
	for _, n := range []int{511, 512, 513, 1025} {
		rng := rand.New(rand.NewSource(int64(n)))
		b := NewBuilder(nil)
		for i := 0; i < n; i++ {
			b.AddNode(fmt.Sprintf("L%d", rng.Intn(7)))
		}
		refOut, refIn := make([][]int32, n), make([][]int32, n)
		seen := map[[2]int32]bool{}
		addEdge := func(u, v int32) {
			_ = b.AddEdge(u, v)
			if !seen[[2]int32{u, v}] {
				seen[[2]int32{u, v}] = true
				refOut[u] = append(refOut[u], v)
				refIn[v] = append(refIn[v], u)
			}
		}
		for i := 0; i < 3*n; i++ {
			addEdge(rng.Int31n(int32(n)), rng.Int31n(int32(n)))
		}
		// Rows of the last node of one page and the first of the next.
		for _, v := range []int32{0, 510, 511, 512, int32(n - 1)} {
			if int(v) < n {
				addEdge(v, int32(n-1)-v)
				addEdge(int32(n-1)-v, v)
			}
		}
		built := b.Build()

		nodeLbl := make([]int32, n)
		byLabel := make(map[int32][]int32)
		for v := int32(0); v < int32(n); v++ {
			slices.Sort(refOut[v])
			slices.Sort(refIn[v])
			nodeLbl[v] = built.Label(v)
			byLabel[nodeLbl[v]] = append(byLabel[nodeLbl[v]], v)
		}
		adopted := FromParts(built.Labels(), nodeLbl, csrOf(refOut), csrOf(refIn), byLabel, built.NumEdges(), "", nil, Delta{})
		out, in := built.Rows()
		shared := FromParts(built.Labels(), nodeLbl, out, in, nil, built.NumEdges(), "", built, Delta{})

		for _, g := range []*Graph{built, adopted, shared} {
			if g.NumNodes() != n || g.NumEdges() != len(seen) {
				t.Fatalf("n=%d: graph has %d nodes, %d edges, want %d and %d", n, g.NumNodes(), g.NumEdges(), n, len(seen))
			}
			for v := int32(0); v < int32(n); v++ {
				if !slices.Equal(g.Out(v), refOut[v]) || !slices.Equal(g.In(v), refIn[v]) {
					t.Fatalf("n=%d: rows of node %d are %v / %v, want %v / %v", n, v, g.Out(v), g.In(v), refOut[v], refIn[v])
				}
				if g.Degree(v) != len(refOut[v])+len(refIn[v]) {
					t.Fatalf("n=%d: degree of node %d", n, v)
				}
			}
			if len(g.EdgeList()) != len(seen) {
				t.Fatalf("n=%d: EdgeList lists %d edges, want %d", n, len(g.EdgeList()), len(seen))
			}
		}
	}
}

// TestBallScratchAcrossPages: a scratch ball with more than one page of
// members — its adjacency spans pages — equals NewBall, and a small ball
// built next on the same scratch does not read the large one's pages.
func TestBallScratchAcrossPages(t *testing.T) {
	g := randomGraph(1500, 6000, 5, 11)
	var s BallScratch
	for _, tc := range []struct {
		center int32
		radius int
	}{{7, 4}, {900, 1}, {1200, 5}, {3, 0}} {
		want := NewBall(g, tc.center, tc.radius)
		got := s.Build(g, tc.center, tc.radius)
		sameBall(t, want, got, fmt.Sprintf("center %d radius %d", tc.center, tc.radius))
		if tc.radius >= 4 && got.NumNodes() <= pageSize {
			t.Fatalf("center %d radius %d: the ball has %d members, the test needs more than a page", tc.center, tc.radius, got.NumNodes())
		}
	}
}

// TestSmallDiameterMatchesBFS holds the word-parallel diameter of graphs up
// to 64 nodes to the per-node BFS, disconnected graphs included.
func TestSmallDiameterMatchesBFS(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		if seed%10 == 0 {
			n = 64
		}
		g := randomGraph(n, rng.Intn(2*n+1), 3, seed)
		d, ok := smallDiameter(g)
		wd, wok := bfsDiameter(g)
		if d != wd || ok != wok {
			t.Fatalf("seed %d (%d nodes): smallDiameter = (%d,%v), BFS gives (%d,%v)", seed, n, d, ok, wd, wok)
		}
	}
}

// checkRows holds every read of c to the model: AppendRow (after a prefix
// already in the buffer), Degree, Has on each target and on each of its
// neighbours that is not one, and Any and Intersects, with their early exit,
// on the set of targets below 2^16 divisible by 3.
func checkRows(t *testing.T, c CSR, model [][]int32, ctx string) {
	t.Helper()
	if c.Len() != len(model) {
		t.Fatalf("%s: %d rows, want %d", ctx, c.Len(), len(model))
	}
	inSet := func(w int32) bool { return w < 1<<16 && w%3 == 0 }
	set := NewNodeSet(1 << 16)
	for _, row := range model {
		for _, w := range row {
			if inSet(w) {
				set.Add(w)
			}
		}
	}
	for v, row := range model {
		v := int32(v)
		if got := c.AppendRow([]int32{-7}, v); got[0] != -7 || !slices.Equal(got[1:], row) {
			t.Fatalf("%s: row %d decodes to %v, want %v", ctx, v, got[1:], row)
		}
		if got := c.Degree(v); got != len(row) {
			t.Fatalf("%s: row %d has degree %d, want %d", ctx, v, got, len(row))
		}
		for _, w := range row {
			for _, x := range []int32{w - 1, w, w + 1} {
				_, want := slices.BinarySearch(row, x)
				if x >= 0 && c.Has(v, x) != want {
					t.Fatalf("%s: Has(%d, %d) = %v, want %v", ctx, v, x, !want, want)
				}
			}
		}
		want := 0
		for _, w := range row {
			if inSet(w) {
				want++
			}
		}
		if got := c.Intersects(v, set); got != (want > 0) {
			t.Fatalf("%s: Intersects(%d) = %v with %d members in the row", ctx, v, got, want)
		}
		n, tested := 0, len(row)
		if i := slices.IndexFunc(row, inSet); i >= 0 {
			tested = i + 1
		}
		if found := c.Any(v, func(w int32) bool { n++; return inSet(w) }); found != (want > 0) || n != tested {
			t.Fatalf("%s: Any(%d) = %v after testing %d targets, want %d", ctx, v, found, n, tested)
		}
	}
}

// flatCSR returns rows as a CSR encoded in one pass, as a Builder does.
func flatCSR(rows [][]int32) CSR {
	start := []int32{0}
	var to []int32
	for _, row := range rows {
		to = append(to, row...)
		start = append(start, int32(len(to)))
	}
	return pagedCSR(start, to)
}

// TestCSRRowsRoundTrip holds both encoders — a Builder's flat pass and an
// edit's Freeze — to a model of per-row slices on the rows the format has
// cases for: empty rows, self-loops, a first target below v (one and five
// varint bytes), gaps either side of every width boundary up to the largest
// a row of node ids can hold, and rows on both sides of a page boundary.
func TestCSRRowsRoundTrip(t *testing.T) {
	const big = 1<<31 - 1
	rows := make([][]int32, 2*pageSize+5)
	special := [][]int32{
		{},
		{0},
		{3},
		{0, 1, 2, 3},
		{5, 5 + 256},             // largest gap − 1 255: width 1
		{5, 5 + 257, 5 + 258},    // 256: width 2
		{5, 5 + 1<<16},           // 65 535: width 2
		{5, 5 + 1<<16 + 1},       // 65 536: width 3
		{5, 5 + 1<<24},           // 2^24 − 1: width 3
		{5, 5 + 1<<24 + 1},       // 2^24: width 4
		{0, big},                 // 2^31 − 2: width 4
		{big},                    // a first gap of five varint bytes
		{1, 2, big - 1, big},     // one wide gap among narrow ones
		{100000, 100001, 100002}, // a first target far above v
		{0, 1 << 13, 1<<13 + 1<<20, 1<<13 + 1<<20 + 127}, // a first target below v
	}
	for i := range rows {
		switch {
		case i < len(special):
			rows[i] = special[i]
		case i%7 == 0:
			rows[i] = []int32{int32(i)} // a self-loop
		case i%7 == 1:
			rows[i] = []int32{0, int32(i) - 1, int32(i), int32(i) + 1} // a self-loop among others
		}
	}
	// Rows at the page boundaries: the last of one page and the first of the
	// next, each with a wide first gap from v.
	for _, v := range []int{pageSize - 1, pageSize, 2*pageSize - 1, 2 * pageSize} {
		rows[v] = []int32{0, int32(v) + 300, big - 5}
	}
	// First gaps on both sides of every varint length: zigzag payloads of
	// 7, 14, 21 and 28 bits.
	for j, d := range []int32{63, 64, 8191, 8192, 1<<20 - 1, 1 << 20, 1<<27 - 1, 1 << 27} {
		v := len(special) + 10 + j
		rows[v] = []int32{int32(v) + d, int32(v) + d + 1}
	}
	// A row of 255 one-byte gaps, with the largest one-byte gap 256.
	for w := int32(0); w < 255*256; w += 256 {
		rows[len(special)+3] = append(rows[len(special)+3], w)
	}
	checkRows(t, flatCSR(rows), rows, "builder")
	checkRows(t, csrOf(rows), rows, "edit")
	for _, n := range []int{0, 1, pageSize - 1, pageSize, pageSize + 1} {
		checkRows(t, flatCSR(rows[:n]), rows[:n], fmt.Sprintf("builder, %d rows", n))
	}
}

// FuzzCSRRows drives sequences of Append, Set, Own, Freeze and abandoned
// edits from the input against a model of per-row slices — up to 512
// operations and 16 freezes, on up to 2048 rows, sixteen pages — and after
// every Freeze holds the new CSR's reads (checkRows), and at the end every
// earlier CSR's, to the model it was frozen from.
func FuzzCSRRows(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 2, 9, 1, 1, 3})
	f.Add([]byte{5, 5, 0, 1, 1, 4, 0, 0, 0, 128, 255, 255, 255, 127, 3, 2, 1, 1, 3, 4, 1, 0, 3})
	f.Add([]byte{5, 5, 5, 1, 255, 1, 6, 1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 0, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		node := func(n int) int32 { return int32((next()<<8 | next()) % n) }
		const maxRows = 16 * pageSize
		var (
			model   [][]int32
			cur     CSR
			history []CSR
			wants   [][][]int32
		)
		e, rows := cur.Edit(), [][]int32{}
		for ops := 0; len(data) > 0 && ops < 512 && len(history) < 16; ops++ {
			switch next() % 6 {
			case 0: // append one row
				if len(rows) == maxRows {
					continue
				}
				e.Append()
				rows = append(rows, nil)
			case 5: // append up to 510 rows, about four pages, to at most maxRows
				for k := min(next()*2, maxRows-len(rows)); k > 0; k-- {
					e.Append()
					rows = append(rows, nil)
				}
			case 1: // replace a row
				if len(rows) == 0 {
					continue
				}
				v := node(len(rows))
				var row []int32
				for k := next() % 9; k > 0; k-- {
					if next()%2 == 0 {
						row = append(row, int32(next()))
					} else {
						row = append(row, int32(uint32(next()<<24|next()<<16|next()<<8|next())&(1<<31-1)))
					}
				}
				slices.Sort(row)
				row = slices.Compact(row)
				e.Set(v, slices.Clone(row))
				rows[v] = row
			case 2: // own a row and drop its first target
				if len(rows) == 0 {
					continue
				}
				v := node(len(rows))
				row := e.Own(v)
				if len(row) > 0 {
					row = row[1:]
				}
				e.Set(v, row)
				rows[v] = slices.Clone(row)
			case 3: // freeze
				c, _ := e.Freeze()
				checkRows(t, c, rows, "frozen")
				cur, model = c, rows
				history, wants = append(history, c), append(wants, model)
				e, rows = cur.Edit(), slices.Clone(model)
			case 4: // abandon the edit
				e, rows = cur.Edit(), slices.Clone(model)
			}
		}
		for i, c := range history {
			checkRows(t, c, wants[i], fmt.Sprintf("CSR %d after later edits", i))
		}
	})
}
