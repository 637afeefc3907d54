package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload of BENCHMARK.json for one operation, untraced
// and traced, with every output check on, and asserts that exactly the
// metrics BENCHMARK.json names are emitted, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, wl.Name, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			r, err := runWorkload(ctx, options{
				workload: wl.Name, seed: 7, seconds: time.Second, trace: traced,
				setups: 1, minimal: true, outDir: t.TempDir(),
			})
			cancel()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if r.attempted < 1 || r.failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", wl.Name, traced, r.failed, r.attempted, r.errs)
			}
			for _, m := range want {
				got, ok := r.metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", wl.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(r.metrics), len(want))
			}
		}
	}
}
