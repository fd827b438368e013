package api

import (
	"encoding/json"
	"testing"
)

// FuzzMatchRequest: whatever bytes arrive as a match request body, decoding
// them and compiling the query spec never panics, and a spec that compiles
// has non-negative radius, limit and top_k and, when it carries a center
// slice, 0 ≤ index < of. Seeded with API.md's request bodies and
// TestV1Errors' malformed specs.
func FuzzMatchRequest(f *testing.F) {
	for _, body := range []string{
		`{"pattern_text":"node a HR\nnode b SE\nedge a b\n"}`,
		`{"pattern":{"name":"q","nodes":[{"id":"a","label":"HR"},{"id":"b","label":"SE"}],` +
			`"edges":[{"u":"a","v":"b"},{"u":"b","v":"a","bound":"1"}]}}`,
		`{"pattern_text":"edge a b","query":{"mode":"plus","radius":0,"limit":0,"top_k":3,` +
			`"metric":"compactness","deadline_ms":1000,"stats":true,"allow_partial":false,"no_plan":false}}`,
		`{"pattern_text":"edge a b","query":{"mode":"nope"}}`,
		`{"pattern_text":"edge a b","query":{"top_k":1,"metric":"nope"}}`,
		`{"pattern_text":"edge a b","query":{"limit":-1}}`,
		`{"pattern_text":"edge a b","query":{"radius":-1}}`,
		`{"pattern_text":"edge a b","query":{"mode":"match+","slice":{"index":1,"of":3}}}`,
		`{"pattern_text":"edge a b","query":{"slice":{"index":2,"of":2}}}`,
		`{"pattern_text":"edge a b","query":{"slice":{"index":-1,"of":0}}}`,
		`{"query":{"slice":null}}`,
		`{not json`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req MatchRequest
		if json.Unmarshal([]byte(body), &req) != nil {
			return
		}
		spec := req.Query
		opts, metric, err := spec.Compile()
		if err != nil {
			return
		}
		if metric == nil {
			t.Fatalf("%s: compiled without a metric", body)
		}
		if opts.Radius < 0 || opts.Limit < 0 || spec.TopK < 0 {
			t.Fatalf("%s: compiled radius %d, limit %d, top_k %d", body, opts.Radius, opts.Limit, spec.TopK)
		}
		if sl := opts.Slice; (spec.Slice != nil) != (sl.Of > 0) || sl.Of < 0 || sl.Index < 0 || (sl.Of > 0 && sl.Index >= sl.Of) {
			t.Fatalf("%s: wire slice %+v compiled to %+v", body, spec.Slice, sl)
		}
	})
}
