// Command bench is the measurement spine of this repository: it self-hosts
// the real serving stack in-process, drives it through the client SDK under
// four workloads on a 100k-node graph, checks the answers, and prints
// end-to-end metrics (timed run) or per-layer metrics and a latency budget
// (traced run). See README.md.
//
//	bash bench/run.sh                                  # every workload, timed and traced
//	bash bench/run.sh -workload adhoc-plus -trace 1    # one run, as the driver makes it
//	bash bench/run.sh -aa                              # the timed suite twice, compared
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds, which the driver passes as
// -seconds on every run (see README, "Time").
const defaultSeconds = 35

// outDir is where the span files of traced runs go, beside the binary.
const outDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "", "run this workload only and end with the driver's result line; empty runs the whole suite")
		seed    = flag.Int64("seed", 1, "seed of the graph and of every request sequence")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured phase; the driver passes run_seconds")
		trace   = flag.Int("trace", 0, "1 makes the traced run (per-layer metrics), 0 the timed run (end-to-end metrics)")
		smoke   = flag.Bool("smoke", false, "2000-node graph, small pools and 1 s phases: does it all still run?")
		aa      = flag.Bool("aa", false, "run the timed suite twice and compare the two against the bounds")
	)
	flag.Parse()
	args := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", fmt.Sprint(*seconds),
		"-smoke=" + strconv.FormatBool(*smoke)}

	var err error
	switch {
	case *name != "":
		spec, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		err = single(config{spec: spec, seed: *seed, seconds: *seconds, trace: *trace == 1,
			smoke: *smoke, outDir: outDir})
	case *aa:
		err = aaSuite(args)
	default:
		err = suite(args, *seed, config{seconds: *seconds, smoke: *smoke}.phase().Seconds(), *smoke)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

var errIncorrect = fmt.Errorf("a workload failed an operation, an answer or a self-check")

// single makes one run in this process: the report, then, as the last line,
// the result object the driver reads.
func single(cfg config) error {
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]metric)}
	for k, m := range rep.Metrics {
		line.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", doc, last)
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// child makes one run in a fresh process — heap, obs.Default counters and
// plan caches never leak from one workload into the next — and returns its
// report.
func child(args []string, workload string, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{"-workload", workload, "-trace", strconv.Itoa(trace)}, args...)...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	// The report is everything but the last line, whatever the exit code.
	body := bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		body = body[:i]
	}
	var rep report
	if err := json.Unmarshal(body, &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, runErr)
		}
		return nil, fmt.Errorf("%s (trace %d): reading report: %w", workload, trace, err)
	}
	return &rep, nil
}

// header is the environment the numbers were taken in.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

func newHeader(seed int64, seconds float64, smoke bool) header {
	h := header{Commit: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		Seed: seed, Seconds: seconds, Smoke: smoke}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// suite runs every workload timed and traced and prints one document.
func suite(args []string, seed int64, seconds float64, smoke bool) error {
	type runs struct {
		Timed  *report `json:"timed"`
		Traced *report `json:"traced"`
	}
	doc := struct {
		Header    header          `json:"header"`
		Workloads map[string]runs `json:"workloads"`
		Claim     any             `json:"claim"` // this benchmark claims no gain
	}{Header: newHeader(seed, seconds, smoke), Workloads: make(map[string]runs)}
	correct := true
	for _, w := range workloads {
		var r runs
		var err error
		if r.Timed, err = child(args, w.Name, 0); err != nil {
			return err
		}
		if r.Traced, err = child(args, w.Name, 1); err != nil {
			return err
		}
		correct = correct && r.Timed.Correct && r.Traced.Correct
		doc.Workloads[w.Name] = r
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	if !correct {
		return errIncorrect
	}
	return nil
}

// aaSuite runs the timed suite twice on this binary and this seed and holds
// every workload × end-to-end metric to its bound: two runs of the same code
// must agree by more than the benchmark claims to resolve.
func aaSuite(args []string) error {
	var first, second []*report
	for _, into := range []*[]*report{&first, &second} {
		for _, w := range workloads {
			rep, err := child(args, w.Name, 0)
			if err != nil {
				return err
			}
			*into = append(*into, rep)
		}
	}
	fmt.Printf("%-13s %-15s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	pass := true
	for i, w := range workloads {
		for _, m := range endToEnd {
			a, b := first[i].Metrics[m.Name].Value, second[i].Metrics[m.Name].Value
			d := math.Abs(b-a) / a
			verdict := ""
			if !(d <= m.Bound) {
				verdict, pass = "  EXCEEDS", false
			}
			fmt.Printf("%-13s %-15s %12.4f %12.4f %7.1f%% %5.0f%%%s\n", w.Name, m.Name, a, b, 100*d, 100*m.Bound, verdict)
		}
		pass = pass && first[i].Correct && second[i].Correct
	}
	if !pass {
		return fmt.Errorf("two runs of the same code disagree by more than a bound, or one was incorrect")
	}
	return nil
}
