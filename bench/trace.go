package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (nothing inside the program is instrumented). Spans of one sampled
// request share Req; Parent is the index, in the same file, of the span one
// depth up that this call is a part of, or -1.
//
// The traced pass replays the same requests once per depth, so a parent and
// its children were timed in different replays and their clocks do not
// nest. Children of one parent were always timed in one replay, so their
// intervals compare with each other.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (rc *recorder) now() int64 { return int64(time.Since(rc.t0)) }

func (rc *recorder) add(name string, req int, start, end int64, parent int) int {
	rc.spans = append(rc.spans, span{name, req, start, end, parent})
	return len(rc.spans) - 1
}

// time records f as one span and returns its index.
func (rc *recorder) time(name string, req, parent int, f func()) int {
	start := rc.now()
	f()
	return rc.add(name, req, start, rc.now(), parent)
}

func (rc *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(rc.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}

// covered is the length of the union of the listed spans' intervals.
func covered(spans []span, list []int) int64 {
	iv := append([]int(nil), list...)
	sort.Slice(iv, func(a, b int) bool { return spans[iv[a]].Start < spans[iv[b]].Start })
	var total, end int64
	for k, i := range iv {
		if s := spans[i]; k == 0 || s.Start > end {
			total += s.dur()
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// childrenOf lists every span's children by index.
func childrenOf(spans []span) [][]int {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	return children
}

// selfTimes returns, per span, its duration minus what its children cover.
// Children that ran in parallel overlap and are counted once. A parent and
// its children were timed in different replays, so a self time can come out
// negative; it is left so, because clamping each span at zero would bias
// every mean of self times upwards.
func selfTimes(spans []span) []int64 {
	children := childrenOf(spans)
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(spans, children[i])
	}
	return self
}

// wallShares turns self times into shares of the request's wall time.
// Siblings that overlapped (balls evaluated on two workers) split every
// instant they share equally, so that siblings add up to the wall time they
// covered together rather than to the CPU time they burned; a span with no
// overlapping sibling keeps its whole self time.
func wallShares(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, t := range selfTimes(spans) {
		out[i] = float64(t)
	}
	type edge struct {
		at   int64
		span int
		open bool
	}
	for _, cs := range childrenOf(spans) {
		if len(cs) < 2 {
			continue
		}
		edges := make([]edge, 0, 2*len(cs))
		for _, c := range cs {
			edges = append(edges, edge{spans[c].Start, c, true}, edge{spans[c].End, c, false})
		}
		sort.Slice(edges, func(a, b int) bool { // an empty span opens before it closes
			if edges[a].at != edges[b].at {
				return edges[a].at < edges[b].at
			}
			return edges[a].open && !edges[b].open
		})
		share := make(map[int]float64, len(cs))
		active := make(map[int]bool)
		prev := edges[0].at
		for _, e := range edges {
			for a := range active {
				share[a] += float64(e.at-prev) / float64(len(active))
			}
			prev = e.at
			if e.open {
				active[e.span] = true
			} else {
				delete(active, e.span)
			}
		}
		for c, sh := range share {
			if d := spans[c].dur(); d > 0 {
				out[c] *= sh / float64(d)
			}
		}
	}
	return out
}
