package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// goldenWorkloads are deterministic (pattern, graph) pairs exercising every
// option combination. The dump of every case is pinned in
// testdata/match_golden.txt, generated before the executor refactor (PR 5):
// any change to the bytes of Match/MatchPlus results is a regression, not a
// choice — the executor must be invisible in the output.
func goldenWorkloads() []struct {
	name string
	q, g *graph.Graph
} {
	type wl = struct {
		name string
		q, g *graph.Graph
	}
	var out []wl
	g1 := generator.Synthetic(900, 1.3, 12, 7)
	q1 := generator.SamplePattern(g1, generator.PatternOptions{Nodes: 5, Alpha: 1.2, Seed: 9})
	out = append(out, wl{"synthetic", q1, g1})

	g2 := generator.Synthetic(160, 1.6, 9, 21)
	q2 := generator.SamplePattern(g2, generator.PatternOptions{Nodes: 4, Alpha: 1.5, Seed: 4})
	out = append(out, wl{"dense-few-labels", q2, g2})
	return out
}

func goldenOptionSets() []struct {
	name string
	opts core.Options
} {
	return []struct {
		name string
		opts core.Options
	}{
		{"plain-seq", core.Options{Workers: 1}},
		{"plain-par", core.Options{}},
		{"minq", core.Options{Workers: 1, MinimizeQuery: true}},
		{"dualfilter", core.Options{Workers: 1, DualFilter: true}},
		{"connectivity", core.Options{Workers: 1, ConnectivityPruning: true}},
		{"plus-seq", func() core.Options { o := core.PlusOptions(); o.Workers = 1; return o }()},
		{"plus-par", core.PlusOptions()},
	}
}

// dumpResult renders a Result canonically, byte for byte.
func dumpResult(res *core.Result) string {
	var sb strings.Builder
	s := res.Stats
	fmt.Fprintf(&sb, "stats examined=%d skipped=%d removed=%d dup=%d minfrom=%d\n",
		s.BallsExamined, s.BallsSkipped, s.PairsRemoved, s.Duplicates, s.MinimizedFrom)
	for _, ps := range res.Subgraphs {
		fmt.Fprintf(&sb, "sub center=%d nodes=%v edges=%v rel={", ps.Center, ps.Nodes, ps.Edges)
		for u, row := range ps.Rel {
			if u > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d:%v", u, row)
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

func goldenDump(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, wl := range goldenWorkloads() {
		for _, oc := range goldenOptionSets() {
			res, err := core.MatchWith(wl.q, wl.g, oc.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", wl.name, oc.name, err)
			}
			fmt.Fprintf(&sb, "== %s/%s\n%s", wl.name, oc.name, dumpResult(res))
		}
	}
	return sb.String()
}

// TestMatchGolden pins the exact output of Match under every option set
// against the pre-refactor implementation. Parallel and sequential runs are
// covered by separate cases and must agree with each other through the
// canonical dedup/sort pipeline.
func TestMatchGolden(t *testing.T) {
	path := filepath.Join("testdata", "match_golden.txt")
	got := goldenDump(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("match results diverged from golden file %s.\nThe executor refactor must be byte-invisible; run with -update only for an intentional semantic change.\ngot %d bytes, want %d bytes", path, len(got), len(want))
	}
}
