package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// sameMetrics reports the difference between a declared name/unit list and
// the metrics a run printed.
func sameMetrics(t *testing.T, what string, declared []struct{ Name, Unit string }, got metrics) {
	t.Helper()
	want := make(map[string]string)
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if u, ok := want[n]; !ok {
			t.Errorf("%s: %s is printed but not declared", what, n)
		} else if u != got[n].Unit {
			t.Errorf("%s: %s is printed in %s, declared in %s", what, n, got[n].Unit, u)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("%s: %s is declared but not printed", what, n)
	}
}

func TestBenchmarkFileNamesEveryWorkloadAndEndToEndMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	s := sample{setups: []float64{1e-4}, wall: time.Second, cpu: time.Second, requests: 10, switches: 5, mallocs: 20, bytes: 640}
	gated, _ := endToEnd([]sample{s})
	sameMetrics(t, "end_to_end", f.EndToEnd, gated)
	for n, m := range gated {
		if !(m.Value > 0) {
			t.Errorf("%s = %v; end-to-end metrics must never be 0", n, m.Value)
		}
	}
}

// TestTracedRunPrintsEveryPerLayerMetric runs the traced mode on the
// cheapest workload and checks its metrics against BENCHMARK.json.
func TestTracedRunPrintsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced mode and every probe")
	}
	f := readBenchmarkFile(t)
	w, err := workloadByName("cluster")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, seed: 1, budget: time.Millisecond, stdout: io.Discard}
	res, err := b.traced("")
	if err != nil {
		t.Fatal(err)
	}
	if b.l.failed != 0 {
		t.Fatalf("traced run failed checks: %v", b.l.reasons)
	}
	sameMetrics(t, "per_layer", f.PerLayer, res.Metrics)
	sum := 0.0
	for _, l := range layers {
		sum += res.Metrics["share."+l.name].Value
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}
