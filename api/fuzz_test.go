package api

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzMatchRequest: whatever bytes arrive as a match request body, the
// request codec agrees with encoding/json, and compiling the query spec
// never panics. The schema decoder takes a body only when encoding/json
// decodes it, to the same value; UnmarshalJSON and the handler's decode
// succeed exactly when encoding/json does, with its value. A spec that
// compiles has non-negative radius, limit and top_k and, when it carries a
// center slice, 0 ≤ index < of. Seeded with API.md's request bodies and
// TestV1Errors' malformed specs and bodies.
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
		` {"pattern_text" : "\u00e9\ud83d\ude00\ud800x", "query" : {"stats" : true, "no_plan" : false} } `,
		`{"pattern":{"nodes":[null,{"label":"a"}],"edges":null},"query":null}`,
		`{"pattern_text":"edge a b","Query":{"top_k":2}}`,
		`{"pattern_text":"edge a b","query":{"limit":1},"query":{"top_k":2}}`,
		`{"pattern_text":"edge a b","query":{"radius":1.0}}`,
		`{"pattern_text":"edge a b"} trailing garbage`,
		`{"pattern_text":"edge a b"}{"pattern_text":"edge b a"}`,
		`{"pattern_text":"edge a b","unknown":[1,{"x":null}]}`,
		``,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var plain matchRequestAlias
		perr := json.Unmarshal([]byte(body), &plain)
		want := MatchRequest(plain)
		var schema MatchRequest
		if decodeMatchRequest([]byte(body), &schema) {
			if perr != nil {
				t.Fatalf("%q: schema decoder took it, encoding/json refused it: %v", body, perr)
			}
			if !reflect.DeepEqual(schema, want) {
				t.Fatalf("%q: schema decoder %+v, encoding/json %+v", body, schema, want)
			}
		}
		var served MatchRequest
		if aerr := decodeBody([]byte(body), &served, false); (aerr == nil) != (perr == nil) {
			t.Fatalf("%q: handler decode %v, encoding/json %v", body, aerr, perr)
		} else if aerr == nil && !reflect.DeepEqual(served, want) {
			t.Fatalf("%q: handler decoded %+v, encoding/json %+v", body, served, want)
		}
		var req MatchRequest
		if err := json.Unmarshal([]byte(body), &req); (err == nil) != (perr == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, encoding/json error %v", body, err, perr)
		}
		if perr != nil {
			return
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("%q: UnmarshalJSON decoded %+v, encoding/json %+v", body, req, want)
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
