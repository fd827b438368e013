package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one counter, gauge and histogram from many
// goroutines while a scraper renders the registry, so `go test -race`
// certifies the update and render paths together.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "test counter")
	g := r.Gauge("hammer_depth", "test gauge")
	h := r.Histogram("hammer_seconds", "test histogram", DefBuckets())

	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(float64(i%100) / 1000)
				if i%100 == 0 {
					// Scrape mid-update: rendering must never race.
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestGetOrCreate pins the idempotent registration contract: the same name
// and labels return the same metric, and distinct labels return distinct
// series under one family.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "requests", "endpoint", "/v1/match")
	b := r.Counter("reqs_total", "requests", "endpoint", "/v1/match")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("reqs_total", "requests", "endpoint", "/v1/graph")
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Add(3)
	other.Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	vals, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("rendered exposition does not parse: %v", err)
	}
	if vals[`reqs_total{endpoint="/v1/match"}`] != 3 {
		t.Fatalf("match series = %v, want 3\n%s", vals, sb.String())
	}
	if vals[`reqs_total{endpoint="/v1/graph"}`] != 1 {
		t.Fatalf("graph series = %v, want 1", vals)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

// TestExposition checks the rendered format line by line: HELP before TYPE,
// one pair per family, families sorted, histogram buckets cumulative with a
// +Inf bucket equal to _count.
func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last family").Add(7)
	g := r.Gauge("aa_depth", "first family")
	g.Set(-2)
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	r.GaugeFunc("fn_value", "a function-backed gauge", func() float64 { return 2.5 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")

	// Families sorted by name, HELP immediately followed by TYPE.
	var helps []string
	for i, line := range lines {
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			helps = append(helps, name)
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Fatalf("HELP for %s not followed by its TYPE:\n%s", name, text)
			}
		}
	}
	want := []string{"aa_depth", "fn_value", "lat_seconds", "zz_total"}
	if len(helps) != len(want) {
		t.Fatalf("families = %v, want %v", helps, want)
	}
	for i := range want {
		if helps[i] != want[i] {
			t.Fatalf("families = %v, want sorted %v", helps, want)
		}
	}

	vals, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if vals["zz_total"] != 7 || vals["aa_depth"] != -2 || vals["fn_value"] != 2.5 {
		t.Fatalf("parsed values wrong: %v", vals)
	}
	// Cumulative buckets: 0.005→1, 0.05→2, 0.5→3, +Inf→4.
	for bound, wantN := range map[string]float64{
		`lat_seconds_bucket{le="0.01"}`: 1,
		`lat_seconds_bucket{le="0.1"}`:  2,
		`lat_seconds_bucket{le="1"}`:    3,
		`lat_seconds_bucket{le="+Inf"}`: 4,
	} {
		if vals[bound] != wantN {
			t.Fatalf("%s = %v, want %v\n%s", bound, vals[bound], wantN, text)
		}
	}
	if vals["lat_seconds_count"] != 4 {
		t.Fatalf("count = %v, want 4", vals["lat_seconds_count"])
	}
	if math.Abs(vals["lat_seconds_sum"]-5.555) > 1e-9 {
		t.Fatalf("sum = %v, want 5.555", vals["lat_seconds_sum"])
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "escaping", "path", `a"b\c`).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c"} 1`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

// TestDefBuckets audits the default latency buckets against the quantiles of
// the load run DefBuckets was sized on (8 SDK clients, 80:10:10
// match/update/standing mix, plus mode; /v1/match p50 7.9ms, p95 13.6ms,
// p99 19.4ms): the
// bounds must be strictly increasing, resolve the 5–25ms band finely enough
// that those three quantiles land in different buckets, and reach the 60s
// MaxTimeout default so slow queries don't vanish into +Inf.
func TestDefBuckets(t *testing.T) {
	b := DefBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not strictly increasing at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
	bucketFor := func(v float64) int {
		for i, bound := range b {
			if v <= bound {
				return i
			}
		}
		return len(b) // +Inf
	}
	p50, p95, p99 := bucketFor(0.0079), bucketFor(0.0136), bucketFor(0.0194)
	if p50 == p95 || p95 == p99 {
		t.Errorf("load-run quantiles collapse: p50/p95/p99 land in buckets %d/%d/%d of %v",
			p50, p95, p99, b)
	}
	if top := b[len(b)-1]; top < 60 {
		t.Errorf("top bucket %v s < the 60s MaxTimeout default; slow queries fall into +Inf", top)
	}
}

// TestHistogramRenderedMonotone observes values across the whole DefBuckets
// range — including one past the top bound — and asserts the rendered
// exposition keeps the cumulative-bucket invariants a scraper depends on:
// counts non-decreasing by bound and le="+Inf" equal to _count.
func TestHistogramRenderedMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("audit_seconds", "bucket audit", DefBuckets())
	for _, v := range []float64{0.00005, 0.003, 0.0079, 0.0136, 0.0194, 0.4, 7, 75} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	vals, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	prev := -1.0
	for _, bound := range DefBuckets() {
		key := fmt.Sprintf(`audit_seconds_bucket{le="%s"}`, strconv.FormatFloat(bound, 'g', -1, 64))
		v, ok := vals[key]
		if !ok {
			t.Fatalf("rendered exposition missing bucket %s:\n%s", key, sb.String())
		}
		if v < prev {
			t.Fatalf("bucket %s = %v below previous %v; cumulative counts must be monotone", key, v, prev)
		}
		prev = v
	}
	inf := vals[`audit_seconds_bucket{le="+Inf"}`]
	if inf < prev {
		t.Fatalf("+Inf bucket %v below last finite bucket %v", inf, prev)
	}
	if count := vals["audit_seconds_count"]; inf != count || count != 8 {
		t.Fatalf("+Inf bucket %v != count %v (want 8)", inf, count)
	}
}

// TestParseTextEdgeCases feeds ParseText the corners of the exposition
// grammar WritePrometheus can emit — escaped label values, a '}' inside a
// label value, exponent floats, +Inf as value and as le bound, trailing
// whitespace and an optional timestamp — plus the malformed lines it must
// reject.
func TestParseTextEdgeCases(t *testing.T) {
	input := "# HELP esc_total escaping\n" +
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
		"\n"
	vals, err := ParseText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if vals[`esc_total{path="a\"b\\c"}`] != 3 {
		t.Errorf("escaped label value: %v", vals)
	}
	if vals[`brace_total{expr="x}y"}`] != 2 {
		t.Errorf("label value containing '}': %v", vals)
	}
	if vals["tiny_val"] != 1.5e-05 || vals["big_val"] != 2000 {
		t.Errorf("exponent floats: tiny=%v big=%v", vals["tiny_val"], vals["big_val"])
	}
	if !math.IsInf(vals["inf_val"], 1) {
		t.Errorf("inf_val = %v, want +Inf", vals["inf_val"])
	}
	if vals[`lat_bucket{le="+Inf"}`] != 7 {
		t.Errorf("+Inf bucket key: %v", vals)
	}
	if vals["trailing_val"] != 4 || vals["indented_val"] != 6 {
		t.Errorf("whitespace handling: trailing=%v indented=%v", vals["trailing_val"], vals["indented_val"])
	}
	if vals["stamped_val"] != 5 {
		t.Errorf("timestamped sample: %v, want 5", vals["stamped_val"])
	}

	for _, bad := range []string{"lonely_name", `half{label="x"}`, "nan_ish abc"} {
		if _, err := ParseText(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseText accepted malformed line %q", bad)
		}
	}

	// Round-trip: what WritePrometheus renders for a pathological label value
	// parses back to the same sample.
	r := NewRegistry()
	r.Counter("rt_total", "round trip", "path", `q"u\o}te`).Add(11)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("round trip does not parse: %v\n%s", err, sb.String())
	}
	if back[`rt_total{path="q\"u\\o}te"}`] != 11 {
		t.Errorf("round trip lost the sample: %v\n%s", back, sb.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if q := h.Quantile(0.5); q != 0.01 {
		t.Fatalf("p50 = %v, want 0.01", q)
	}
	if q := h.Quantile(0.99); q != 1 {
		t.Fatalf("p99 = %v, want 1", q)
	}
}
