package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Default is the process-wide registry every instrumented package registers
// into; GET /v1/metrics renders it.
var Default = NewRegistry()

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one (name, labels) time series.
type series struct {
	labels string // pre-rendered `{k="v",...}`, or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups the series sharing one metric name; HELP and TYPE are
// emitted once per family.
type family struct {
	name, help string
	kind       metricKind
	order      []string
	byLabels   map[string]*series
}

// Registry is a set of named metrics. All methods are safe for concurrent
// use; metric updates themselves never take the registry lock.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	names []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// series returns the (name, labels) series, creating family and series as
// needed. labels are alternating key/value pairs. Registering an existing
// name with a different kind panics: that is a programming error, and
// rendering both under one TYPE line would corrupt the exposition.
func (r *Registry) series(name, help string, kind metricKind, labels []string) *series {
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key/value pairs")
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byLabels: make(map[string]*series)}
		r.fams[name] = f
		r.names = append(r.names, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	sr := f.byLabels[ls]
	if sr == nil {
		sr = &series{labels: ls}
		switch kind {
		case kindCounter:
			sr.c = new(Counter)
		case kindGauge:
			sr.g = new(Gauge)
		}
		f.byLabels[ls] = sr
		f.order = append(f.order, ls)
	}
	return sr
}

// Counter returns the counter registered under name and labels, creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.series(name, help, kindCounter, labels).c
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.series(name, help, kindGauge, labels).g
}

// GaugeFunc registers a gauge whose value is read at scrape time.
// Re-registering the same name and labels replaces the function, so a
// rebuilt server rebinds the metric to its live state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	sr := r.series(name, help, kindGaugeFunc, labels)
	r.mu.Lock()
	sr.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name and labels, creating
// it with the given buckets (upper bounds, seconds for latencies) on first
// use. Later calls return the existing histogram; their buckets argument is
// ignored.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	sr := r.series(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if sr.h == nil {
		sr.h = newHistogram(buckets)
	}
	return sr.h
}

// WritePrometheus renders every metric in the text exposition format
// (version 0.0.4): families sorted by name, one HELP and TYPE line each,
// histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := r.fams[name]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, ls := range f.order {
			sr := f.byLabels[ls]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, sr.labels, sr.c.Value())
			case kindGauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, sr.labels, sr.g.Value())
			case kindGaugeFunc:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, sr.labels, formatFloat(sr.fn()))
			case kindHistogram:
				writeHistogram(bw, f.name, sr)
			}
		}
	}
	r.mu.Unlock()
	return bw.Flush()
}

func writeHistogram(w io.Writer, name string, sr *series) {
	var cum int64
	for i, bound := range sr.h.bounds {
		cum += sr.h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(sr.labels, "le", formatFloat(bound)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(sr.labels, "le", "+Inf"), sr.h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, sr.labels, formatFloat(sr.h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, sr.labels, sr.h.Count())
}

// renderLabels renders alternating key/value pairs as `{k="v",...}`.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(kv[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// withLabel appends one more label to a pre-rendered label set (histogram
// `le` buckets).
func withLabel(labels, key, value string) string {
	extra := key + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseText parses a Prometheus text exposition into a flat map from sample
// name (including its rendered labels, e.g. `http_requests_total{code="2xx",
// endpoint="/v1/match",method="POST"}`) to value. Comment and blank lines
// are skipped. It is the inverse of WritePrometheus for the subset this
// package emits, and what the benchmark harness uses to diff scrapes.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var key, rest string
		if i := strings.LastIndexByte(text, '}'); i >= 0 {
			key, rest = text[:i+1], strings.TrimSpace(text[i+1:])
		} else {
			i = strings.IndexAny(text, " \t")
			if i < 0 {
				return nil, fmt.Errorf("obs: line %d: no value in %q", line, text)
			}
			key, rest = text[:i], strings.TrimSpace(text[i:])
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("obs: line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: bad value %q: %v", line, fields[0], err)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
