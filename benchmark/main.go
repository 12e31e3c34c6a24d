// Command benchmark is the repository's benchmark: it boots the live
// Minos server in-process (2 cores, the smallest split where size-aware
// sharding exists), drives it from one goroutine over one connection,
// checks every reply, and prints every metric BENCHMARK.json names.
//
// One invocation measures one workload in one mode — the contract the
// benchmark driver calls:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (the same load plus the layer walk, see walk.go). The last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}. -all and -repeat re-run this same binary once per workload
// and mode, so what they report is what the driver would measure.
// README.md has the workloads, the metric tables and the caveats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	all      bool
	repeat   int
	specPath string
	outDir   string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "the only source of randomness: dataset, request stream, arrivals")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds in BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the layer walk")
	fs.BoolVar(&o.quick, "quick", false, "smoke scale: 50 ms segments, 20 k keys")
	fs.BoolVar(&o.all, "all", false, "run every workload, untraced then traced")
	fs.IntVar(&o.repeat, "repeat", 0, "run every workload untraced N times and compare the end-to-end metrics against their bounds")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.StringVar(&o.outDir, "out", "out/benchmark", "directory for trace files and the WAL scratch space")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.quick {
		o.seconds = 0.8
	}
	switch {
	case o.repeat > 0:
		return runRepeat(o, spec, stdout, stderr)
	case o.all:
		return runAll(o, spec, stdout, stderr)
	}
	return runSingle(o, spec, stdout, stderr)
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) metricsFor(trace int) []specMetric {
	if trace == 0 {
		return s.EndToEnd
	}
	return s.PerLayer
}

// metricValue is one reported number; the JSON form is the contract's.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects what one run measured.
type result struct {
	metrics   map[string]metricValue
	attempted int64
	failed    int64
	notes     []string // harness-validity remarks, printed with the header
}

func newResult() *result { return &result{metrics: make(map[string]metricValue)} }

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// missing lists the metrics of want that were not measured or carry
// another unit than BENCHMARK.json declares.
func (r *result) missing(want []specMetric) []string {
	var out []string
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		switch {
		case !ok:
			out = append(out, m.Name+" (not printed)")
		case got.Unit != m.Unit:
			out = append(out, fmt.Sprintf("%s (unit %q, BENCHMARK.json says %q)", m.Name, got.Unit, m.Unit))
		}
	}
	return out
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runSingle(o options, spec *benchSpec, stdout, stderr io.Writer) int {
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	printHeader(stdout, o, w)
	res, err := runWorkload(o, w, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	want := spec.metricsFor(o.trace)
	line := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, note := range res.notes {
		fmt.Fprintln(stdout, "# note:", note)
	}
	for _, m := range want {
		if got, ok := res.metrics[m.Name]; ok {
			fmt.Fprintf(stdout, "%-32s %16.6g %s\n", m.Name, got.Value, got.Unit)
			line.Metrics[m.Name] = got
		}
	}
	if miss := res.missing(want); len(miss) > 0 {
		fmt.Fprintf(stderr, "benchmark: %s: metrics named in BENCHMARK.json are missing: %s\n", w.name, strings.Join(miss, ", "))
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func printHeader(w io.Writer, o options, wl workloadSpec) {
	fmt.Fprintf(w, "# minos benchmark: workload=%s seed=%d seconds=%g trace=%d quick=%v\n", wl.name, o.seed, o.seconds, o.trace, o.quick)
	fmt.Fprintf(w, "# gomaxprocs=%d nproc=%d cpu=%q %s %s/%s git=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, gitSHA())
	fmt.Fprintf(w, "# %s\n", wl.describe())
}

// gitSHA is the revision the binary was built from, when the build saw
// a git checkout (the benchmark driver's checkout is not one).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runChild re-runs this binary for one workload and mode, passing its
// human-readable output through, and returns the parsed result line.
func runChild(o options, workload string, trace int, stdout, stderr io.Writer) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload,
		"--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds),
		"--trace", fmt.Sprint(trace),
		"--spec", o.specPath,
		"--out", o.outDir,
	}
	if o.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		stdout.Write(out)
		return nil, fmt.Errorf("%s trace=%d: %w", workload, trace, err)
	}
	text := strings.TrimRight(string(out), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Fprintln(stdout, text[:len(text)-len(last)])
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("%s trace=%d: result line: %w", workload, trace, err)
	}
	return &line, nil
}

// runAll runs every workload untraced, then traced.
func runAll(o options, spec *benchSpec, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range spec.Workloads {
		for trace := 0; trace <= 1; trace++ {
			line, err := runChild(o, w.Name, trace, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !line.Correct {
				fmt.Fprintf(stderr, "benchmark: %s trace=%d: %d of %d operations failed\n", w.Name, trace, line.Failed, line.Attempted)
				code = 1
			}
		}
	}
	return code
}

// runRepeat runs every workload untraced o.repeat times back to back
// and holds each end-to-end metric's extremes against its bound: the
// repeatability check a benchmark has to pass before any later change
// can be held to its numbers.
func runRepeat(o options, spec *benchSpec, stdout, stderr io.Writer) int {
	values := make(map[string][]float64) // "workload metric" -> one value per round
	for round := 0; round < o.repeat; round++ {
		for _, w := range spec.Workloads {
			line, err := runChild(o, w.Name, 0, io.Discard, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !line.Correct {
				fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed\n", w.Name, line.Failed, line.Attempted)
				return 1
			}
			for name, m := range line.Metrics {
				key := w.Name + " " + name
				values[key] = append(values[key], m.Value)
			}
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-22s %-20s %-40s %8s %6s\n", "workload", "metric", "values", "diff", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			vs := values[w.Name+" "+m.Name]
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			lo, hi := sorted[0], sorted[len(sorted)-1]
			diff := (hi - lo) / lo
			verdict := ""
			if diff > m.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-22s %-20s %-40s %7.2f%% %5.0f%%%s\n", w.Name, m.Name, fmt.Sprintf("%.5g", vs), 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
