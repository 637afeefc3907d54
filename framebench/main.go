// Command framebench is the repository's end-to-end benchmark. It runs one
// named workload as a closed loop, one operation in flight at a time, checks
// every operation's output, and prints its metrics as the last line of
// standard output:
//
//	go build -o framebench . && ./framebench --workload corridor-wan --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it assembles
// the pipeline from the layers' public constructors, times the calls into
// each layer, and prints the per-layer metrics. BENCHMARK.json at the
// repository root lists the workloads and metrics; record.json beside this
// file says which end-to-end metric each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// setups is how many times the workload is set up; setup_s is the
	// median.
	setups int
	// minimal stops after the first measured operation (smoke test).
	minimal bool
	// outDir receives the span dump of traced runs.
	outDir string
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	attempted int
	failed    int
	metrics   map[string]metric
	errs      []string
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail counts one failed or incorrect operation; the first few reasons are
// reported on standard error.
func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
}

// workloadNames lists every workload in the order BENCHMARK.json gives.
var workloadNames = []string{"corridor-wan", "replay-view", "stage-wan"}

func runWorkload(ctx context.Context, o options) (*result, error) {
	if wl, ok := pipelineWorkloads[o.workload]; ok {
		return runPipeline(ctx, wl, o)
	}
	if o.workload == "stage-wan" {
		return runStage(ctx, o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, which a single slow set-up does not move.
const setupRepeats = 3

// spanDir receives the span dumps of traced runs, relative to the working
// directory.
const spanDir = ".bench_build/framebench"

// runTimeout bounds one invocation, set-up included.
const runTimeout = 150 * time.Second

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: corridor-wan, replay-view or stage-wan")
	flag.Int64Var(&o.seed, "seed", 1, "datagen combustion seed of the workload's inputs")
	flag.IntVar(&seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "framebench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	o.setups = setupRepeats
	o.outDir = spanDir
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	stampJSON, err := json.Marshal(stamp(o.seed))
	if err == nil {
		fmt.Printf("stamp %s\n", stampJSON)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	total0, steal0, stealOK := cpuTicks()
	r, err := runWorkload(ctx, o)
	// Steal is the usual cause of a run that reads slower than its
	// neighbours on a shared virtual machine.
	if total1, steal1, ok := cpuTicks(); stealOK && ok && total1 > total0 {
		fmt.Fprintf(os.Stderr, "framebench: host steal was %.1f%% of CPU time during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err == nil && len(r.metrics) == 0 {
		err = errors.New("no metrics measured")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "framebench: %s: %v\n", o.workload, err)
		cancel()
		os.Exit(1)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "framebench: %s: failed operation: %s\n", o.workload, e)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-26s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out, err := r.line()
	if err != nil {
		fmt.Fprintf(os.Stderr, "framebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
