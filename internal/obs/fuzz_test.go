package obs

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzParseTraceparent: whatever header arrives, an accepted one names
// non-zero trace and span ids and renders back to a header that parses to
// the same context. Seeded with TestTraceparentRoundTrip's rendered contexts
// and TestTraceparentMalformed's corpus.
func FuzzParseTraceparent(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		f.Add(contextFor(rng).String())
	}
	valid := TraceContext{TraceID: TraceID{0xab, 1}, SpanID: SpanID{0xcd, 2}, Flags: 1}.String()
	for _, s := range []string{
		"",
		"00",
		valid[:54],
		strings.ToUpper(valid),
		"ff" + valid[2:],
		"0g" + valid[2:],
		"00_" + valid[3:],
		valid[:3] + strings.Repeat("0", 32) + valid[35:],
		valid[:36] + strings.Repeat("0", 16) + valid[52:],
		valid[:53] + "zz",
		valid + "-extra",
		"01" + valid[2:] + "extra",
		strings.Replace(valid, "-", " ", 1),
		"01" + valid[2:] + "-congo=t61rcWkgMzE",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted a zero id: %+v", s, tc)
		}
		back, ok := ParseTraceparent(tc.String())
		if !ok || back != tc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its rendering %q parses to %+v, %v", s, tc, tc.String(), back, ok)
		}
	})
}

// FuzzParseText: the exposition parser never panics, and a nil error comes
// with a non-nil map. Seeded with TestParseTextEdgeCases's input and its
// malformed lines.
func FuzzParseText(f *testing.F) {
	f.Add("# HELP esc_total escaping\n" +
		"# TYPE esc_total counter\n" +
		`esc_total{path="a\"b\\c"} 3` + "\n" +
		`brace_total{expr="x}y"} 2` + "\n" +
		"tiny_val 1.5e-05\n" +
		"big_val 2E+3\n" +
		"inf_val +Inf\n" +
		`lat_bucket{le="+Inf"} 7` + "\n" +
		"trailing_val 4   \t\n" +
		"   indented_val 6\n" +
		"stamped_val 5 1700000000000\n" +
		"\n")
	for _, bad := range []string{"lonely_name", `half{label="x"}`, "nan_ish abc", `rt_total{path="q\"u\\o}te"} 11`} {
		f.Add(bad + "\n")
	}
	f.Fuzz(func(t *testing.T, s string) {
		vals, err := ParseText(strings.NewReader(s))
		if err == nil && vals == nil {
			t.Fatalf("ParseText(%q) returned no error and a nil map", s)
		}
	})
}
