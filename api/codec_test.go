package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/plan"
)

// The mirrors of the codec's types: what encoding/json makes of the wire
// form on its own. matchRequestAlias (codec.go) is already one. A rel is
// the map from its indices in decimal to its rows, as encoding/json writes
// it. It decodes as encoding/json decodes such a map, each rel afresh (of a
// rel given twice, the last), and only when the map's keys are "0" to "n-1"
// in canonical decimal.
type plainSubgraph struct {
	Center int32      `json:"center"`
	Score  *float64   `json:"score,omitempty"`
	Nodes  []int32    `json:"nodes"`
	Edges  [][2]int32 `json:"edges"`
	Rel    plainRel   `json:"rel"`
}

type plainRel map[string][]int32

func (m *plainRel) UnmarshalJSON(data []byte) error {
	*m = nil
	if err := json.Unmarshal(data, (*map[string][]int32)(m)); err != nil {
		return err
	}
	if _, ok := relOfPlain(*m); !ok {
		return fmt.Errorf("rel %v: keys are not 0 to n-1", *m)
	}
	return nil
}

// relOfPlain is the Rel a key-checked map stands for.
func relOfPlain(m plainRel) (Rel, bool) {
	if m == nil {
		return nil, true
	}
	r := make(Rel, len(m))
	for k, row := range m {
		u, err := strconv.Atoi(k)
		if err != nil || u < 0 || u >= len(m) || strconv.Itoa(u) != k {
			return nil, false
		}
		r[u] = row
	}
	return r, true
}

func plainOfRel(r Rel) plainRel {
	if r == nil {
		return nil
	}
	m := make(plainRel, len(r))
	for u, row := range r {
		m[strconv.Itoa(u)] = row
	}
	return m
}

func toPlainSubgraph(s SubgraphJSON) plainSubgraph {
	return plainSubgraph{Center: s.Center, Score: s.Score, Nodes: s.Nodes, Edges: s.Edges, Rel: plainOfRel(s.Rel)}
}

type plainResponse struct {
	Matches    []plainSubgraph `json:"matches"`
	Stats      StatsJSON       `json:"stats"`
	QueryStats *QueryStatsJSON `json:"query_stats,omitempty"`
	Partial    *PartialJSON    `json:"partial,omitempty"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

func toPlain(r *MatchResponse) plainResponse {
	p := plainResponse{Stats: r.Stats, QueryStats: r.QueryStats, Partial: r.Partial, ElapsedMS: r.ElapsedMS}
	if r.Matches != nil {
		p.Matches = make([]plainSubgraph, len(r.Matches))
		for i, m := range r.Matches {
			p.Matches[i] = toPlainSubgraph(m)
		}
	}
	return p
}

func fromPlain(p *plainResponse) MatchResponse {
	r := MatchResponse{Stats: p.Stats, QueryStats: p.QueryStats, Partial: p.Partial, ElapsedMS: p.ElapsedMS}
	if p.Matches != nil {
		r.Matches = make([]SubgraphJSON, len(p.Matches))
		for i, m := range p.Matches {
			rel, _ := relOfPlain(m.Rel)
			r.Matches[i] = SubgraphJSON{Center: m.Center, Score: m.Score, Nodes: m.Nodes, Edges: m.Edges, Rel: rel}
		}
	}
	return r
}

// codecCorpus is the benchmark harness's match traffic (bench/workload.go
// at seed 1): its 100k-node graph live behind the handler, 512 distinct
// patterns per mode sent as the SDK sends them, and the bodies the handler
// answers them with.
type codecCorpus struct {
	reqBodies  map[string][][]byte // json.Marshal of each request, by mode
	respBodies map[string][][]byte // the served bodies, by mode
	variants   [][]byte            // top_k and stats answers to some of them
	streams    [][]byte            // /v1/match/stream bodies for some of them
}

var servedCorpus = sync.OnceValue(func() *codecCorpus {
	g := generator.Synthetic(100000, 1.2, 200, 1)
	h := NewLiveServer(live.NewStore(g, live.Config{Workers: 2}), Config{})
	serve := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			panic(path + ": " + rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	c := &codecCorpus{reqBodies: map[string][][]byte{}, respBodies: map[string][][]byte{}}
	for _, mode := range []string{ModePlain, ModePlus} {
		minNodes := map[string]int{ModePlain: 2, ModePlus: 3}[mode]
		rng := rand.New(rand.NewSource(1))
		seen := make(map[string]bool)
		for len(c.reqBodies[mode]) < 512 {
			nodes := minNodes + len(c.reqBodies[mode])%3
			q := generator.SamplePattern(g, generator.PatternOptions{Nodes: nodes, Alpha: 1.2, Seed: rng.Int63()})
			if d, connected := graph.Diameter(q); !connected || d > 3 || q.NumNodes() != nodes {
				continue
			}
			if key, _ := plan.Canon(q); seen[key] {
				continue
			} else {
				seen[key] = true
			}
			req := MatchRequest{Pattern: FromGraph(q), Query: QuerySpec{Mode: mode}}
			body, err := json.Marshal(req)
			if err != nil {
				panic(err)
			}
			c.reqBodies[mode] = append(c.reqBodies[mode], body)
			c.respBodies[mode] = append(c.respBodies[mode], serve("/v1/match", body))
			if i := len(c.reqBodies[mode]); i%32 == 0 {
				for _, spec := range []QuerySpec{{Mode: mode, TopK: 3}, {Mode: mode, Stats: true, NoPlan: true}} {
					body, _ := json.Marshal(MatchRequest{Pattern: req.Pattern, Query: spec})
					c.variants = append(c.variants, serve("/v1/match", body))
				}
				c.streams = append(c.streams, serve("/v1/match/stream", body))
			}
		}
	}
	return c
})

// withPartial is r as a router answers it under allow_partial, with a stage
// trace and a cache outcome.
func withPartial(r MatchResponse) MatchResponse {
	r.Partial = &PartialJSON{FailedShards: []int{2, 0}, MissingNodes: 33334}
	r.QueryStats = &QueryStatsJSON{CandidateCenters: 7, BallsBuilt: 7, BallNodes: 1 << 40,
		PrepareMS: 0.0000004, FilterMS: 1e21, EvalMS: 0.125, PlanCache: "miss"}
	return r
}

// TestMatchCodecBytes: over the harness's 1 024 served responses, their
// top_k and stats variants and router-shaped partial ones, the appender
// writes the bytes encoding/json writes, and the handler served exactly
// them plus json.Encoder's newline.
func TestMatchCodecBytes(t *testing.T) {
	c := servedCorpus()
	var bodies [][]byte
	for _, mode := range []string{ModePlain, ModePlus} {
		bodies = append(bodies, c.respBodies[mode]...)
	}
	bodies = append(bodies, c.variants...)
	var ranked, traced, n int
	for _, body := range bodies {
		var p plainResponse
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		r := fromPlain(&p)
		if len(r.Matches) > 0 && r.Matches[0].Score != nil {
			ranked++
		}
		if r.QueryStats != nil {
			traced++
		}
		for _, r := range []MatchResponse{r, withPartial(r)} {
			want, err := json.Marshal(toPlain(&r))
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendMatchResponse(nil, &r)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("appender wrote\n%s (%v)\nencoding/json\n%s", got, err, want)
			}
			if viaMarshal, err := json.Marshal(r); err != nil || !bytes.Equal(viaMarshal, want) {
				t.Fatalf("json.Marshal through MarshalJSON wrote\n%s (%v)\nwant\n%s", viaMarshal, err, want)
			}
			n++
		}
		if want, _ := appendMatchResponse(nil, &r); !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("served\n%s\nappender\n%s", body, want)
		}
	}
	if ranked == 0 || traced == 0 {
		t.Fatalf("variants cover %d ranked and %d traced responses", ranked, traced)
	}
	t.Logf("%d responses byte-identical (%d ranked, %d traced)", n, ranked, traced)
}

// TestMatchCodecTakesWhatIsSent: every request body the SDK sends for the
// harness's corpus, and every body and stream line the handler writes for
// it, is taken by the schema decoders themselves, never by the encoding/json
// fallback, and decodes to encoding/json's value.
func TestMatchCodecTakesWhatIsSent(t *testing.T) {
	c := servedCorpus()
	for _, mode := range []string{ModePlain, ModePlus} {
		for _, body := range c.reqBodies[mode] {
			var got MatchRequest
			var want matchRequestAlias
			if !decodeMatchRequest(body, &got) {
				t.Fatalf("schema decoder refused the request %s", body)
			}
			if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(got, MatchRequest(want)) {
				t.Fatalf("request %s decoded to %+v, encoding/json %+v (%v)", body, got, want, err)
			}
		}
	}
	var bodies [][]byte
	for _, mode := range []string{ModePlain, ModePlus} {
		bodies = append(bodies, c.respBodies[mode]...)
	}
	for _, body := range append(bodies, c.variants...) {
		var got MatchResponse
		var want plainResponse
		if !decodeMatchResponse(body, &got) {
			t.Fatalf("schema decoder refused the response %s", body)
		}
		if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(got, fromPlain(&want)) {
			t.Fatalf("response %s decoded to %+v, encoding/json %+v (%v)", body, got, want, err)
		}
	}
	lines := 0
	for _, stream := range c.streams {
		for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
			inner, ok := bytes.CutPrefix(line, []byte(`{"match":`))
			if !ok {
				continue
			}
			var sj SubgraphJSON
			if !decodeWhole(bytes.TrimSuffix(inner, []byte("}\n")), &sj, (*decoder).subgraph) {
				t.Fatalf("schema decoder refused the stream line %s", line)
			}
			lines++
		}
	}
	if lines == 0 {
		t.Fatal("no stream lines")
	}
}

// TestMatchCodecAgreesOnDamagedBodies: served bodies cut short at every
// byte, or with one byte changed to a character JSON gives meaning to, are
// taken by the schema decoders only when encoding/json takes them, and to
// its value. A response body meets FuzzMatchResponse's oracle: UnmarshalJSON
// takes it exactly when encoding/json takes it into the map-typed mirror
// with every rel keyed "0" to "n-1", and to the same value.
func TestMatchCodecAgreesOnDamagedBodies(t *testing.T) {
	c := servedCorpus()
	check := func(body []byte) {
		var want plainResponse
		perr := json.Unmarshal(body, &want)
		var resp MatchResponse
		if decodeMatchResponse(body, &resp) {
			if perr != nil || !reflect.DeepEqual(resp, fromPlain(&want)) {
				t.Fatalf("response decoder took %q as %+v, encoding/json %+v (%v)", body, resp, want, perr)
			}
		}
		var viaMethod MatchResponse
		if err := viaMethod.UnmarshalJSON(body); (err == nil) != (perr == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, encoding/json error %v", body, err, perr)
		} else if err == nil && !reflect.DeepEqual(viaMethod, fromPlain(&want)) {
			t.Fatalf("%q: UnmarshalJSON decoded %+v, encoding/json %+v", body, viaMethod, want)
		}
		var req MatchRequest
		if decodeMatchRequest(body, &req) {
			var want matchRequestAlias
			if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(req, MatchRequest(want)) {
				t.Fatalf("request decoder took %q as %+v, encoding/json %+v (%v)", body, req, want, err)
			}
		}
	}
	for _, mode := range []string{ModePlain, ModePlus} {
		// Per mode, the first request, and the shortest answer with a match
		// of three or more pattern nodes.
		bodies := [][]byte{c.reqBodies[mode][0], nil}
		for _, body := range c.respBodies[mode] {
			if bytes.Contains(body, []byte(`"2":`)) && (bodies[1] == nil || len(body) < len(bodies[1])) {
				bodies[1] = body
			}
		}
		for _, body := range bodies {
			for n := range body {
				check(body[:n])
				for _, b := range []byte(` ,:"\{}[]0-.eEnAu`) {
					damaged := bytes.Clone(body)
					damaged[n] = b
					check(damaged)
				}
			}
		}
	}
}

// TestRelKeyRule: a rel of every length up to 1 001 is written as
// encoding/json writes its map, keys sorted as strings, and decodes back to
// itself through the schema decoder. A rel decodes when its keys are "0" to
// "n-1" in canonical decimal, in any order, a repeated key's last value
// winning as in encoding/json; any other key set is an error that names rel.
func TestRelKeyRule(t *testing.T) {
	for n := 0; n <= 1001; n++ {
		r := make(Rel, n)
		for u := range r {
			r[u] = []int32{int32(u)}
		}
		got, _ := r.MarshalJSON()
		if want, _ := json.Marshal(plainOfRel(r)); !bytes.Equal(got, want) {
			t.Fatalf("%d rows written as\n%s\nencoding/json\n%s", n, got, want)
		}
		var back Rel
		if !decodeWhole(got, &back, (*decoder).rel) || !reflect.DeepEqual(back, r) {
			t.Fatalf("%d rows: %s decoded to %v", n, got, back)
		}
	}
	for _, tc := range []struct {
		rel  string
		want Rel
	}{
		{`null`, nil},
		{`{}`, Rel{}},
		{`{"1":[2],"0":[1]}`, Rel{{1}, {2}}},
		{`{"0":[1],"1":null,"0":[3]}`, Rel{{3}, nil}},
		{`{"0":[1],"\u0031":[2]}`, Rel{{1}, {2}}},
		{`{"0":[1],"2":[3]}`, nil},
		{`{"0":[1],"01":[2]}`, nil},
		{`{"-1":[1]}`, nil},
		{`{"x":[1]}`, nil},
		{`{"1000000000":[1]}`, nil},
	} {
		var s SubgraphJSON
		err := json.Unmarshal([]byte(`{"center":1,"rel":`+tc.rel+`}`), &s)
		if tc.want == nil && tc.rel != `null` {
			if err == nil || !strings.Contains(err.Error(), "rel") {
				t.Errorf("rel %s: decoded to %v, error %v; want an error naming rel", tc.rel, s.Rel, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(s.Rel, tc.want) {
			t.Errorf("rel %s: decoded to %#v (%v), want %#v", tc.rel, s.Rel, err, tc.want)
		}
	}
}

// TestAppendMatchResponseAllocates0: appending a response into a buffer
// that already holds one allocates nothing.
func TestAppendMatchResponseAllocates0(t *testing.T) {
	score := 0.75
	r := withPartial(MatchResponse{
		Matches: []SubgraphJSON{{
			Center: 7, Score: &score, Nodes: []int32{1, 7, 9}, Edges: [][2]int32{{1, 7}, {7, 9}},
			Rel: Rel{{7}, {1, 9}, {9}, {}, nil, {1}, {7}, {9}, {1, 7, 9}, {7}, {9}},
		}},
		Stats:     StatsJSON{BallsExamined: 12, Duplicates: 3, MinimizedFrom: 4},
		ElapsedMS: 0.318,
	})
	buf, err := appendMatchResponse(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { buf, _ = appendMatchResponse(buf[:0], &r) }); n != 0 {
		t.Errorf("appending into a warmed buffer: %.1f allocations, want 0", n)
	}
}

// fuzzBytes hands out a fuzz input's bytes as the parts of a response.
type fuzzBytes struct{ b []byte }

func (f *fuzzBytes) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzBytes) int() int64 {
	var buf [8]byte
	n := copy(buf[:], f.b)
	f.b = f.b[n:]
	return int64(binary.LittleEndian.Uint64(buf[:])) >> (f.byte() % 64)
}

// float covers the 'e' format at both ends, zeros and, from raw bits,
// everything else a float64 holds, NaN and the infinities included.
func (f *fuzzBytes) float() float64 {
	switch f.byte() % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 1e-7 * float64(f.byte())
	case 3:
		return 1e21 * float64(1+f.byte())
	case 4:
		return float64(f.int()) / 1000
	default:
		return math.Float64frombits(uint64(f.int()))
	}
}

func (f *fuzzBytes) string() string {
	n := int(f.byte() % 8)
	s := string(f.b[:min(n, len(f.b))])
	f.b = f.b[min(n, len(f.b)):]
	return strings.ToValidUTF8(s, "\uFFFD")
}

func (f *fuzzBytes) int32s() []int32 {
	switch n := int(f.byte() % 6); n {
	case 0:
		return nil
	default:
		out := make([]int32, n-1)
		for i := range out {
			out[i] = int32(f.int())
		}
		return out
	}
}

// response builds a response from the fuzz bytes.
func (f *fuzzBytes) response() MatchResponse {
	var r MatchResponse
	if n := int(f.byte() % 5); n > 0 {
		r.Matches = make([]SubgraphJSON, n-1)
	}
	for i := range r.Matches {
		m := &r.Matches[i]
		m.Center = int32(f.int())
		if f.byte()%2 == 1 {
			s := f.float()
			m.Score = &s
		}
		m.Nodes = f.int32s()
		if n := int(f.byte() % 4); n > 0 {
			m.Edges = make([][2]int32, n-1)
			for j := range m.Edges {
				m.Edges[j] = [2]int32{int32(f.int()), int32(f.int())}
			}
		}
		if n := int(f.byte() % 14); n > 0 {
			m.Rel = make(Rel, n-1)
			for u := range m.Rel {
				m.Rel[u] = f.int32s()
			}
		}
	}
	r.Stats = StatsJSON{int(f.int()), int(f.int()), int(f.int()), int(f.int()), int(f.int()) * int(f.byte()%2)}
	if f.byte()%2 == 1 {
		r.QueryStats = &QueryStatsJSON{int(f.int()), int(f.int()), f.int(), f.int(),
			f.float(), f.float(), f.float(), f.float(), []string{"", "hit", "miss", f.string()}[f.byte()%4]}
	}
	if f.byte()%2 == 1 {
		r.Partial = &PartialJSON{MissingNodes: int(f.int())}
		if n := int(f.byte() % 4); n > 0 {
			r.Partial.FailedShards = make([]int, n-1)
			for i := range r.Partial.FailedShards {
				r.Partial.FailedShards[i] = int(f.int())
			}
		}
	}
	r.ElapsedMS = f.float()
	return r
}

// FuzzMatchResponse checks the response codec against encoding/json. A
// response built from the fuzz bytes is appended as encoding/json writes
// its map-typed mirror (both refuse a NaN or infinite float) and decodes
// back to itself. The fuzz bytes taken as a body are the oracle's: the
// codec accepts exactly what encoding/json accepts into the mirror and
// whose rel keys are "0" to "n-1", and then decodes the same value; the
// schema decoder takes a subset of those bodies, UnmarshalJSON all of them.
func FuzzMatchResponse(f *testing.F) {
	for _, seed := range []string{
		"",
		"\x02\x01\x05\x03\x04\x05",
		`{"matches":[{"center":7,"score":0.5,"nodes":[1,7],"edges":[[1,7]],` +
			`"rel":{"0":[7],"1":[1],"10":null,"2":[],"3":[7],"4":[1,7],"5":[7],"6":[1],"7":[7],"8":[1],"9":[7]}}],` +
			`"stats":{"balls_examined":3,"balls_skipped":0,"pairs_removed":2,"duplicates":0,"minimized_from":4},` +
			`"query_stats":{"candidate_centers":1,"balls_built":1,"ball_nodes":6,"ball_edges":9,"prepare_ms":1e-7,` +
			`"filter_ms":0.01,"eval_ms":2e21,"merge_ms":0,"plan_cache":"miss"},` +
			`"partial":{"failed_shards":[2],"missing_nodes":5},"elapsed_ms":0.318}`,
		`{"matches":[],"stats":{},"elapsed_ms":-0}`,
		`{"matches":null,"stats":null,"query_stats":null,"partial":null,"elapsed_ms":null}`,
		` { "elapsed_ms" : 1E+2 , "matches" : [ null , { "rel" : { "1" : [ ] , "0" : null } } ] } `,
		`{"matches":[{"center":1}],"matches":[{"nodes":[2]}]}`,
		`{"Matches":[{"Center":1}]}`,
		`{"matches":[{"center":1.5}]}`,
		`{"matches":[{"center":2147483648}]}`,
		`{"matches":[{"edges":[[1],[1,2,3],null]}]}`,
		`{"extra":{"a":[1,"x\ud800",true,false,null,{}]},"matches":[]}`,
		`{"matches":[]} trailing`,
		`null`,
		// rel key sets that do not decode: sparse, not canonical, negative,
		// not a number.
		`{"matches":[{"center":1,"rel":{"0":[1],"1":[2],"10":[3]}}]}`,
		`{"matches":[{"rel":{"0":[1],"01":[2]}}]}`,
		`{"matches":[{"rel":{"-1":[1]}}]}`,
		`{"matches":[{"rel":{"x":[1]}}]}`,
		// ones the fallback decodes: a key given twice, the last value
		// winning, and an escaped key.
		`{"matches":[{"rel":{"0":[1],"1":[2],"0":[3]}}]}`,
		`{"matches":[{"rel":{"0":[1],"\u0031":[2]}}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := (&fuzzBytes{b: data}).response()
		want, werr := json.Marshal(toPlain(&r))
		got, err := appendMatchResponse(nil, &r)
		if (err == nil) != (werr == nil) {
			t.Fatalf("appender error %v, encoding/json error %v", err, werr)
		}
		if err == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("appender wrote\n%s\nencoding/json\n%s", got, want)
			}
			var back MatchResponse
			if !decodeMatchResponse(got, &back) {
				t.Fatalf("schema decoder refused the appender's %s", got)
			}
			if !reflect.DeepEqual(back, r) {
				t.Fatalf("%s decoded to %+v, want %+v", got, back, r)
			}
		}

		var plain plainResponse
		perr := json.Unmarshal(data, &plain)
		var schema MatchResponse
		if decodeMatchResponse(data, &schema) {
			if perr != nil {
				t.Fatalf("schema decoder took %q, encoding/json refused it: %v", data, perr)
			}
			if want := fromPlain(&plain); !reflect.DeepEqual(schema, want) {
				t.Fatalf("%q decoded to %+v, encoding/json %+v", data, schema, want)
			}
		}
		var viaMethod MatchResponse
		if merr := json.Unmarshal(data, &viaMethod); (merr == nil) != (perr == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, encoding/json error %v", data, merr, perr)
		} else if merr == nil && !reflect.DeepEqual(viaMethod, fromPlain(&plain)) {
			t.Fatalf("%q: UnmarshalJSON decoded %+v, encoding/json %+v", data, viaMethod, plain)
		}
	})
}

// rawResponse is what a response decoded into before the codec: the
// mirror with no method, a rel a plain map.
type rawResponse struct {
	Matches []struct {
		Center int32              `json:"center"`
		Score  *float64           `json:"score,omitempty"`
		Nodes  []int32            `json:"nodes"`
		Edges  [][2]int32         `json:"edges"`
		Rel    map[string][]int32 `json:"rel"`
	} `json:"matches"`
	Stats      StatsJSON       `json:"stats"`
	QueryStats *QueryStatsJSON `json:"query_stats,omitempty"`
	Partial    *PartialJSON    `json:"partial,omitempty"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

// BenchmarkMatchCodec times the codec against encoding/json on the
// harness's traffic: per mode, a response encode (the handler's write), a
// response decode (the SDK's read) and a request decode (the handler's
// read), cycling through the 512 patterns' bodies. encoding-json is what
// each side ran before the codec: json.Encoder and json.Decoder.
func BenchmarkMatchCodec(b *testing.B) {
	c := servedCorpus()
	for _, mode := range []string{ModePlain, ModePlus} {
		reqs, resps := c.reqBodies[mode], c.respBodies[mode]
		values := make([]MatchResponse, len(resps))
		plains := make([]plainResponse, len(resps))
		for i, body := range resps {
			if err := json.Unmarshal(body, &plains[i]); err != nil {
				b.Fatal(err)
			}
			values[i] = fromPlain(&plains[i])
		}
		run := func(name string, op func(i int) error) {
			b.Run(mode+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := op(i % len(resps)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		var buf []byte
		run("response-encode/codec", func(i int) (err error) {
			buf, err = appendMatchResponse(buf[:0], &values[i])
			return err
		})
		run("response-encode/encoding-json", func(i int) error {
			return json.NewEncoder(io.Discard).Encode(plains[i])
		})
		run("response-decode/codec", func(i int) error {
			var r MatchResponse
			return r.UnmarshalJSON(resps[i])
		})
		run("response-decode/encoding-json", func(i int) error {
			var r rawResponse
			return json.NewDecoder(bytes.NewReader(resps[i])).Decode(&r)
		})
		run("request-decode/codec", func(i int) error {
			if aerr := decodeBody(reqs[i], new(MatchRequest), false); aerr != nil {
				return aerr
			}
			return nil
		})
		run("request-decode/encoding-json", func(i int) error {
			return json.NewDecoder(bytes.NewReader(reqs[i])).Decode(new(matchRequestAlias))
		})
	}
}
