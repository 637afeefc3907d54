package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: visapult
cpu: Intel(R) Xeon(R) CPU
BenchmarkE1_DPSSThroughput-8                   1          52143761 ns/op               980.9 LAN-Mbps        570.3 WAN-Mbps
BenchmarkE3_FirstLight-8                       1         104485668 ns/op                 3.021 load-s       433.4 Mbps          8.533 render-s         70.25 util-%
BenchmarkRenderSlab-8                          1            867037 ns/op         1511608 voxels/op
PASS
ok      visapult        12.774s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "visapult" {
		t.Errorf("header parsed as %q/%q/%q", doc.Goos, doc.Goarch, doc.Pkg)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}

	e1 := doc.Benchmarks[0]
	if e1.Name != "E1_DPSSThroughput" {
		t.Errorf("name %q, want E1_DPSSThroughput (suffix stripped)", e1.Name)
	}
	if e1.Iterations != 1 {
		t.Errorf("iterations %d, want 1", e1.Iterations)
	}
	if got := e1.Metrics["LAN-Mbps"]; got != 980.9 {
		t.Errorf("LAN-Mbps = %v, want 980.9", got)
	}
	if got := e1.Metrics["WAN-Mbps"]; got != 570.3 {
		t.Errorf("WAN-Mbps = %v, want 570.3", got)
	}

	e3 := doc.Benchmarks[1]
	if len(e3.Metrics) != 5 { // ns/op + 4 custom metrics
		t.Errorf("E3 carries %d metrics, want 5: %+v", len(e3.Metrics), e3.Metrics)
	}
	if got := e3.Metrics["util-%"]; got != 70.25 {
		t.Errorf("util-%% = %v, want 70.25", got)
	}
}

func TestParseBenchmemColumns(t *testing.T) {
	const withMem = `BenchmarkE1_DPSSThroughput-8   1   52143761 ns/op   980.9 LAN-Mbps   2097152 B/op   1742 allocs/op
BenchmarkRenderSlab-8          1     867037 ns/op
`
	doc, err := parse(strings.NewReader(withMem))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}

	e1 := doc.Benchmarks[0]
	if e1.BytesPerOp == nil || *e1.BytesPerOp != 2097152 {
		t.Errorf("BytesPerOp = %v, want 2097152", e1.BytesPerOp)
	}
	if e1.AllocsPerOp == nil || *e1.AllocsPerOp != 1742 {
		t.Errorf("AllocsPerOp = %v, want 1742", e1.AllocsPerOp)
	}
	// The raw pairs stay in Metrics alongside the custom quantities.
	if got := e1.Metrics["B/op"]; got != 2097152 {
		t.Errorf("Metrics[B/op] = %v, want 2097152", got)
	}
	if got := e1.Metrics["allocs/op"]; got != 1742 {
		t.Errorf("Metrics[allocs/op] = %v, want 1742", got)
	}
	if got := e1.Metrics["LAN-Mbps"]; got != 980.9 {
		t.Errorf("Metrics[LAN-Mbps] = %v, want 980.9", got)
	}

	// A line without the -benchmem columns omits the alloc fields entirely.
	slab := doc.Benchmarks[1]
	if slab.BytesPerOp != nil || slab.AllocsPerOp != nil {
		t.Errorf("RenderSlab alloc fields = %v/%v, want nil/nil", slab.BytesPerOp, slab.AllocsPerOp)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	noise := `random text
Benchmark
BenchmarkNoFields-8
FAIL
`
	doc, err := parse(strings.NewReader(noise))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise, want 0: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
}

// TestParseKeepsNumericNamesWithoutProcsSuffix: output from a GOMAXPROCS=1
// run carries no -N suffix, so a trailing -N belongs to the name and three
// sub-benchmarks keep three distinct names; with a common -N suffix on every
// line, only that suffix goes.
func TestParseKeepsNumericNamesWithoutProcsSuffix(t *testing.T) {
	const oneCPU = `BenchmarkRenderKernel/parallel-1   10   100 ns/op
BenchmarkRenderKernel/parallel-2   10   60 ns/op
BenchmarkRenderKernel/parallel-4   10   40 ns/op
BenchmarkRenderSlab                10   867037 ns/op
`
	const eightCPU = `BenchmarkRenderKernel/parallel-1-8   10   100 ns/op
BenchmarkRenderKernel/parallel-2-8   10   60 ns/op
BenchmarkRenderSlab-8                10   867037 ns/op
`
	for _, tc := range []struct {
		name, in string
		want     []string
	}{
		{"one CPU", oneCPU, []string{"RenderKernel/parallel-1", "RenderKernel/parallel-2", "RenderKernel/parallel-4", "RenderSlab"}},
		{"eight CPUs", eightCPU, []string{"RenderKernel/parallel-1", "RenderKernel/parallel-2", "RenderSlab"}},
	} {
		doc, err := parse(strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, b := range doc.Benchmarks {
			got = append(got, b.Name)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: names %q, want %q", tc.name, got, tc.want)
		}
	}
}
