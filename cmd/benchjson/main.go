// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, preserving the custom per-benchmark metrics the E1-E12
// experiment benchmarks report (LAN-Mbps, load-s, util-%, ...). CI runs it
// after the bench job and uploads the result as the BENCH_ci.json artifact,
// giving every push a machine-readable perf snapshot to diff against.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run='^$' . | benchjson > BENCH_ci.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix stripped (see
	// stripProcsSuffix).
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit -> value for every "value unit" pair on the line:
	// the standard ns/op and B/op as well as the custom b.ReportMetric
	// quantities the experiment benchmarks emit.
	Metrics map[string]float64 `json:"metrics"`
	// BytesPerOp and AllocsPerOp surface the -benchmem allocation columns
	// as first-class fields so perf diffs can key on them without knowing
	// the unit spellings; omitted when the run did not pass -benchmem.
	// The raw pairs stay in Metrics as well.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Doc is the JSON document benchjson emits.
type Doc struct {
	// Goos, Goarch, Pkg echo the header lines of the bench output.
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse reads `go test -bench` output and extracts every benchmark line.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
			continue
		}
		var s string
		switch {
		case scanHeader(line, "goos: ", &s):
			doc.Goos = s
		case scanHeader(line, "goarch: ", &s):
			doc.Goarch = s
		case scanHeader(line, "pkg: ", &s):
			doc.Pkg = s
		case scanHeader(line, "cpu: ", &s):
			doc.CPU = s
		}
	}
	stripProcsSuffix(doc.Benchmarks)
	return doc, sc.Err()
}

// stripProcsSuffix removes the -N GOMAXPROCS suffix so names are stable
// across runners. The suffix is stripped only when every benchmark line ends
// in the same -N: with GOMAXPROCS=1 the test binary appends none, and a
// trailing -N is then part of the name (RenderKernel/parallel-2).
func stripProcsSuffix(bs []Benchmark) {
	suffix := ""
	for i, b := range bs {
		s := procsSuffix(b.Name)
		if s == "" || (i > 0 && s != suffix) {
			return
		}
		suffix = s
	}
	for i := range bs {
		bs[i].Name = strings.TrimSuffix(bs[i].Name, suffix)
	}
}

// procsSuffix returns name's trailing "-digits", or "" if it has none.
func procsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return ""
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return ""
		}
	}
	return name[i:]
}

// scanHeader extracts the value of a "key: value" header line.
func scanHeader(line, prefix string, out *string) bool {
	rest, ok := strings.CutPrefix(line, prefix)
	if !ok || rest == "" {
		return false
	}
	*out = rest
	return true
}

// parseLine parses one "BenchmarkName-N  iters  v1 u1  v2 u2 ..." line.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	// A benchmark line needs a name, an iteration count, and at least one
	// value/unit pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	name, ok := strings.CutPrefix(fields[0], "Benchmark")
	if !ok || name == "" {
		return Benchmark{}, false
	}
	var iters int64
	if _, err := fmt.Sscanf(fields[1], "%d", &iters); err != nil {
		return Benchmark{}, false
	}
	metrics := make(map[string]float64, (len(fields)-2)/2)
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
			return Benchmark{}, false
		}
		metrics[fields[i+1]] = v
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: metrics}
	if v, ok := metrics["B/op"]; ok {
		b.BytesPerOp = &v
	}
	if v, ok := metrics["allocs/op"]; ok {
		b.AllocsPerOp = &v
	}
	return b, true
}
