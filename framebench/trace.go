package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public API. Spans of one operation share Run; Frame and PE are -1
// where they do not apply.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Run    int    `json:"run"`
	Frame  int    `json:"frame"`
	PE     int    `json:"pe"`
	// Count is the span's work count: bytes for loads, sends and stages,
	// skipped macrocell segments for renders.
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// add records a span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time, run, frame, pe int, count int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end),
		Run: run, Frame: frame, PE: pe, Count: count})
	return id
}

// setParent links span id under parent.
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span { return t.snapshotFrom(0) }

// snapshotFrom returns a copy of the spans recorded after the first n.
func (t *tracer) snapshotFrom(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[n:]...)
}

// len returns how many spans have been recorded.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durationsMS returns the durations in ms of the named spans.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write dumps every span as JSON into dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.snapshot()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// interval is a half-open time range in tracer nanoseconds.
type interval struct{ lo, hi int64 }

// coverage returns how much of [lo, hi) the union of ivs covers.
func coverage(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// layerOf maps span names to the repository layer they time.
var layerOf = map[string]string{
	"manager.run":     "manager",
	"backend.frame":   "backend",
	"dpss.load":       "dpss",
	"render.slab":     "render",
	"wire.send":       "wire",
	"viewer.assemble": "viewer",
	"viewer.final":    "viewer",
	"hpss.warm":       "hpss",
	"hpss.step":       "hpss",
	"hpss.retrieve":   "hpss",
	"dpss.stage":      "dpss",
}

// rootSpans name the spans that cover one whole operation.
var rootSpans = map[string]bool{"manager.run": true, "hpss.warm": true}

// selfTimes attributes each span's self time (its duration minus the part
// of it its children cover) to the span's layer, summed over the spans on
// the blocking path: the operation's root span and the spans linked under
// it. Spans off the blocking path (render-loop composites, PEs that did not
// finish a frame last) have no parent link and are skipped.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		layer, ok := layerOf[s.Name]
		if !ok {
			continue
		}
		if s.Parent == 0 && !rootSpans[s.Name] {
			continue
		}
		// A child may start before its parent window (an overlapped load
		// begins during the previous frame); only the part inside the
		// parent counts as blocking, so clip the span to its parent.
		lo, hi := s.Start, s.End
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			lo, hi = max(lo, p.Start), min(hi, p.End)
		}
		if lo >= hi {
			continue
		}
		self := (hi - lo) - coverage(children[s.ID], lo, hi)
		out[layer] += time.Duration(self)
	}
	return out
}

// report prints the per-layer self times of a traced run and writes its
// spans out.
func report(tr *tracer, spans []span, o options, ops int) {
	printSelfTimes(os.Stderr, o.workload, spans, ops)
	path, err := tr.write(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "framebench: writing spans: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
}

// printSelfTimes writes the per-layer self time per operation.
func printSelfTimes(w io.Writer, workload string, spans []span, ops int) {
	st := selfTimes(spans)
	var total time.Duration
	layers := make([]string, 0, len(st))
	for l, d := range st {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return st[layers[i]] > st[layers[j]] })
	fmt.Fprintf(w, "self time along the blocking path, %s, per operation (%d operations):\n", workload, ops)
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(st[l]) / float64(total)
		}
		fmt.Fprintf(w, "  %-8s %10.3f ms  %5.1f%%\n", l, ms(st[l])/float64(max(ops, 1)), 100*share)
	}
}

// perLayerUnits gives every per-layer metric its unit. A traced run sets
// the metrics of the layers its workload uses and reports 0 for the rest.
var perLayerUnits = map[string]string{
	"dpss.load_ms":            "ms",
	"dpss.load_ms_p90":        "ms",
	"dpss.load_mbps":          "MB/s",
	"dpss.first_load_ms":      "ms",
	"dpss.stage_block_us":     "us",
	"dpss.stage_replica_mbps": "MB/s",
	"hpss.file_ms":            "ms",
	"hpss.file_ms_p90":        "ms",
	"render.ms":               "ms",
	"render.tiles_skipped":    "count",
	"backend.overlap_eff":     "ratio",
	"wire.send_us":            "us",
	"wire.bytes_per_frame":    "B",
	"viewer.arrival_lag_us":   "us",
	"viewer.composite_ms":     "ms",
	"viewer.composite_ms_p90": "ms",
	"viewer.composites":       "count",
	"viewer.redraw_ms":        "ms",
	"viewer.redraw_alloc_mb":  "MB",
	"framecache.hit_ratio":    "ratio",
	"manager.overhead_ms":     "ms",
	"manager.sub_drops":       "count",
	"go.gc_cpu_frac":          "frac",
	"trace.overhead_frac":     "frac",
}

func (r *result) setLayer(name string, v float64) { r.set(name, v, perLayerUnits[name]) }

// zeroUnmeasuredLayers reports 0 for every per-layer metric not set.
func (r *result) zeroUnmeasuredLayers() {
	for name, unit := range perLayerUnits {
		if _, ok := r.metrics[name]; !ok {
			r.set(name, 0, unit)
		}
	}
}
