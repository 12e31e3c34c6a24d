package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func quickOptions(t *testing.T, workload string, trace int) options {
	t.Helper()
	return options{workload: workload, seed: 1, seconds: 0.8, trace: trace, quick: true, specPath: specPath, outDir: t.TempDir()}
}

// TestWorkloadsMeasureEveryMetric runs each workload once at smoke
// scale, traced, and checks that what it measured is exactly what
// BENCHMARK.json names — every end-to-end and every per-layer metric,
// with its unit, and nothing else — that no operation failed, and that
// the workload list matches too.
func TestWorkloadsMeasureEveryMetric(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got := workloadNames(); strings.Join(got, " ") != strings.Join(listed, " ") {
		t.Fatalf("workloads: the program has %v, BENCHMARK.json lists %v", got, listed)
	}
	named := make(map[string]bool)
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if named[m.Name] {
			t.Errorf("BENCHMARK.json names %s twice", m.Name)
		}
		named[m.Name] = true
	}
	for _, name := range listed {
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			o := quickOptions(t, name, 1)
			res, err := runWorkload(o, workloads[name], &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d operations failed\n%s", res.failed, res.attempted, log.String())
			}
			for _, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
				if miss := res.missing(want); len(miss) > 0 {
					t.Errorf("missing: %s", strings.Join(miss, ", "))
				}
			}
			for got := range res.metrics {
				if !named[got] {
					t.Errorf("measured %s, which BENCHMARK.json does not name", got)
				}
			}
			for _, m := range spec.EndToEnd {
				if res.metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.metrics[m.Name].Value)
				}
			}
			checkTrace(t, filepath.Join(o.outDir, "trace-"+name+".json"), res.metrics["server.walk_small_ns"].Value)
		})
	}
}

// TestResultLine runs the command the driver runs, untraced, and checks
// the contract's last line: exactly the end-to-end metrics, each once.
func TestResultLine(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "resp-cache", "--seed", "3", "--trace", "0", "--quick", "--spec", specPath, "--out", t.TempDir()}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", line.Correct, line.Attempted, line.Failed, stderr.String())
	}
	if len(line.Metrics) != len(spec.EndToEnd) {
		t.Errorf("result line has %d metrics, BENCHMARK.json names %d end-to-end", len(line.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s: got %+v, want unit %q", m.Name, got, m.Unit)
		}
		printed := 0
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 3 && f[0] == m.Name && f[2] == m.Unit {
				printed++
			}
		}
		if printed != 1 {
			t.Errorf("%s printed %d times with its unit, want once", m.Name, printed)
		}
	}
}

// checkTrace reads a trace file back: every span lies inside its
// request's root span, and the median small request's spans sum to the
// reported server.walk_small_ns.
func checkTrace(t *testing.T, path string, walkSmallNs float64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		ClockNs int64     `json:"clock_ns"`
		Kinds   []string  `json:"kinds"`
		Spans   [][]int64 `json:"spans"` // kind, request, parent, start, end
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	sums := make(map[int64]int64) // request -> sum of its leaves' self time
	small := make(map[int64]bool) // requests with no large-only span
	for i, s := range trace.Spans {
		kind, req, parent, start, end := s[0], s[1], s[2], s[3], s[4]
		if end < start {
			t.Fatalf("span %d ends before it starts: %v", i, s)
		}
		if parent < 0 {
			small[req] = true
			continue
		}
		root := trace.Spans[parent]
		if root[2] != -1 || root[1] != req || start < root[3] || end > root[4] {
			t.Fatalf("span %d %v does not nest in its root %v", i, s, root)
		}
		sums[req] += max(end-start-trace.ClockNs, 0)
		if trace.Kinds[kind] == "ring.hop" {
			small[req] = false
		}
	}
	var totals []float64
	for req, sum := range sums {
		if small[req] {
			totals = append(totals, float64(sum))
		}
	}
	got, want := median(totals), walkSmallNs
	if want <= 0 || got < 0.95*want || got > 1.05*want {
		t.Errorf("median small request's spans sum to %.0f ns, server.walk_small_ns is %.0f", got, want)
	}
}
