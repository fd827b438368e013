package experiments

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// tinyConfig keeps test graphs small (QualitySize clamps at 100 nodes).
func tinyConfig() Config {
	c := Defaults()
	c.Scale = 0.02
	c.Trials = 2
	c.VF2MaxEmbeddings = 2000
	c.VF2MaxSteps = 2_000_000
	return c
}

func TestTable2MatchesPaper(t *testing.T) {
	c := tinyConfig()
	tbl, err := c.Table2()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{
		"Sim":    {"children": 1, "parents": 0, "connectivity": 0, "und.cycles": 0, "locality": 0, "bounded": 0},
		"Dual":   {"children": 1, "parents": 1, "connectivity": 1, "und.cycles": 1, "locality": 0, "bounded": 0},
		"Strong": {"children": 1, "parents": 1, "connectivity": 1, "und.cycles": 1, "locality": 1, "bounded": 1},
		"Iso":    {"children": 1, "parents": 1, "connectivity": 1, "und.cycles": 1, "locality": 1, "bounded": 0},
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table 2 has %d rows, want 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		w, ok := want[row.X]
		if !ok {
			t.Fatalf("unexpected notion %q", row.X)
		}
		for crit, expected := range w {
			if got := row.Values[crit]; got != expected {
				t.Errorf("Table 2 %s/%s = %v, want %v (paper's matrix)", row.X, crit, got, expected)
			}
		}
	}
}

func TestClosenessVaryVqStructureAndOrdering(t *testing.T) {
	c := tinyConfig()
	c.Trials = 1
	tbl, err := c.ClosenessVaryVq(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(VqSweep()) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(VqSweep()))
	}
	for _, row := range tbl.Rows {
		vf2 := row.Values["VF2"]
		match := row.Values["Match"]
		sim := row.Values["Sim"]
		if vf2 == 0 {
			continue // VF2 found nothing in this trial; closeness undefined
		}
		if vf2 != 1 {
			t.Fatalf("VF2 closeness = %v, must be 1 when matches exist", vf2)
		}
		// Proposition 1 chain: VF2 nodes ⊆ Match nodes ⊆ Sim nodes, so
		// closeness must decrease along the chain.
		if match > vf2+1e-9 || sim > match+1e-9 {
			t.Fatalf("closeness ordering violated at |Vq|=%s: VF2=%v Match=%v Sim=%v",
				row.X, vf2, match, sim)
		}
	}
}

func TestSubgraphCountsStructure(t *testing.T) {
	c := tinyConfig()
	c.Trials = 1
	tbl, err := c.SubgraphsVaryVq(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 4 {
		t.Fatalf("series = %v, want TALE, MCS, VF2, Match", tbl.Series)
	}
	for _, row := range tbl.Rows {
		for _, s := range tbl.Series {
			if row.Values[s] < 0 {
				t.Fatalf("negative count %s at %s", s, row.X)
			}
		}
	}
}

func TestTable3Structure(t *testing.T) {
	c := tinyConfig()
	c.Trials = 1
	tbl, err := c.Table3Sizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want amazon/youtube/synthetic", len(tbl.Rows))
	}
	// Every matched subgraph bucket count is a non-negative integer and
	// the rendered table mentions all three datasets.
	text := tbl.String()
	for _, ds := range []string{"amazon", "youtube", "synthetic"} {
		if !strings.Contains(text, ds) {
			t.Fatalf("rendered table lacks %s:\n%s", ds, text)
		}
	}
}

func TestPerfTablesStructure(t *testing.T) {
	c := tinyConfig()
	c.Trials = 1
	amazonTbl, err := c.PerfVaryVq(Amazon)
	if err != nil {
		t.Fatal(err)
	}
	if amazonTbl.Series[0] != "VF2" {
		t.Fatalf("amazon perf must include VF2, got %v", amazonTbl.Series)
	}
	synthTbl, err := c.PerfVaryVq(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range synthTbl.Series {
		if s == "VF2" {
			t.Fatal("synthetic perf must omit VF2, as in the paper")
		}
	}
	for _, row := range synthTbl.Rows {
		for _, s := range synthTbl.Series {
			if row.Values[s] < 0 {
				t.Fatalf("negative time at %s/%s", row.X, s)
			}
		}
	}
}

func TestAblationStructure(t *testing.T) {
	c := tinyConfig()
	c.Trials = 1
	tbl, err := c.Ablation(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("ablation rows = %d, want 5 variants", len(tbl.Rows))
	}
	if tbl.Rows[0].X != "Match" || tbl.Rows[0].Values["vs_Match"] != 1 {
		t.Fatalf("baseline row malformed: %+v", tbl.Rows[0])
	}
}

// TestEveryArtifactRuns executes every driver cmd/experiments can select,
// on every dataset, at a twentieth of laptop scale.
func TestEveryArtifactRuns(t *testing.T) {
	c := Defaults()
	c.Scale = 0.05
	c.Trials = 1
	seen := make(map[string]bool)
	for _, a := range Artifacts {
		if seen[a.ID] {
			t.Fatalf("duplicate artifact id %q", a.ID)
		}
		seen[a.ID] = true
		if got, ok := ArtifactByID(a.ID); !ok || got.ID != a.ID {
			t.Fatalf("ArtifactByID(%q) = %q, %v", a.ID, got.ID, ok)
		}
		tbl, err := a.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
		if len(tbl.Rows) == 0 || len(tbl.Series) == 0 {
			t.Fatalf("%s: empty table:\n%s", a.ID, tbl)
		}
	}
	if len(Artifacts) != 23 {
		t.Fatalf("%d artifacts, want 23 (7c-7n, 8a-8h, table2, table3, ablation)", len(Artifacts))
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", XLabel: "n", Series: []string{"a", "b"}}
	tbl.AddRow("1", map[string]float64{"a": 0.5})
	tbl.Note("hello")
	tbl.Note("hello") // deduplicated
	text := tbl.String()
	if !strings.Contains(text, "== X — demo ==") {
		t.Fatalf("header missing:\n%s", text)
	}
	if !strings.Contains(text, "-") {
		t.Fatal("missing value should render as -")
	}
	if strings.Count(text, "note: hello") != 1 {
		t.Fatal("notes not deduplicated")
	}
}

func TestConfigSizes(t *testing.T) {
	c := Defaults()
	if c.QualitySize(Amazon) != 3124 || c.QualitySize(Synthetic) != 5000 {
		t.Fatal("default quality sizes changed")
	}
	c.Scale = 10
	if c.QualitySize(Amazon) != 31240 {
		t.Fatalf("scaled amazon = %d, want 31240 (the paper's 31245-node setting)", c.QualitySize(Amazon))
	}
	c.Scale = 0.0001
	if c.QualitySize(YouTube) != 100 {
		t.Fatal("minimum size clamp broken")
	}
}

func TestMeasurementRunAllAlgorithms(t *testing.T) {
	c := tinyConfig()
	g := c.NewData(Synthetic, 300)
	q := c.Patterns(g, 4)[0]
	for _, algo := range []Algorithm{AlgoSim, AlgoMatch, AlgoMatchPlus, AlgoVF2, AlgoTALE, AlgoMCS} {
		m, err := c.Run(algo, q, g)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if m.Matched == nil {
			t.Fatalf("%s: nil matched set", algo)
		}
		if m.Elapsed < 0 {
			t.Fatalf("%s: negative time", algo)
		}
		if len(m.Sizes) != m.Subgraphs && algo != AlgoSim {
			t.Fatalf("%s: %d sizes for %d subgraphs", algo, len(m.Sizes), m.Subgraphs)
		}
	}
	if _, err := c.Run(Algorithm("nope"), q, g); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestClosenessMetric(t *testing.T) {
	mk := func(n int) Measurement {
		s := graph.NewNodeSet(100)
		for i := 0; i < n; i++ {
			s.Add(int32(i))
		}
		return Measurement{Matched: s}
	}
	if got := Closeness(mk(5), mk(10)); got != 0.5 {
		t.Fatalf("closeness = %v, want 0.5", got)
	}
	if got := Closeness(mk(5), mk(0)); got != 0 {
		t.Fatalf("closeness vs empty = %v, want 0", got)
	}
	if got := Closeness(mk(5), mk(5)); got != 1 {
		t.Fatalf("closeness identity = %v, want 1", got)
	}
}
