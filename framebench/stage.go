package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"visapult/internal/dpss"
	"visapult/internal/dpss/fabric"
	"visapult/internal/hpss"
)

// stage-wan shape: 32 timesteps warmed from the archive into two clusters,
// every file written to both. The clusters are not shaped: a server's shaper
// paces only its responses, which here are write acknowledgements far below
// any cap, so shaping would change nothing timed and only slow the read-back
// check.
const (
	stageSteps    = 32
	stageClusters = 2
	stageReplicas = 2
)

// stageEnv is the set-up stage-wan workload: the encoded timesteps, the
// clusters, the fabric warming writes through, and a striped client per
// cluster for reading the replicas back.
type stageEnv struct {
	encoded  [][]byte
	clusters []*dpss.Cluster
	readers  []*dpss.Client
	fb       *fabric.Fabric
	ops      int
}

func setupStage(seed int64) (_ *stageEnv, err error) {
	e := &stageEnv{}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	for _, v := range generate(seed, stageSteps) {
		e.encoded = append(e.encoded, v.Marshal())
	}
	var specs []fabric.ClusterSpec
	for i := 0; i < stageClusters; i++ {
		cl, err := startCluster(false)
		if err != nil {
			return nil, err
		}
		e.clusters = append(e.clusters, cl)
		e.readers = append(e.readers, cl.NewClient(dpss.WithStripes(stripes)))
		specs = append(specs, fabric.ClusterSpec{Name: fmt.Sprintf("cluster%d", i), Master: cl.MasterAddr})
	}
	e.fb, err = fabric.New(fabric.Config{Clusters: specs, Replication: stageReplicas, Stripes: stripes})
	return e, err
}

func (e *stageEnv) Close() {
	if e.fb != nil {
		e.fb.Close()
	}
	for _, c := range e.readers {
		c.Close()
	}
	for _, cl := range e.clusters {
		cl.Close()
	}
}

// stageOp is one warming operation as the benchmark observed it.
type stageOp struct {
	start, end time.Time
	report     *hpss.WarmReport
	// completed holds when each file's last replica reported done, in
	// completion order.
	completed []time.Time
	// events are every progress event with its arrival time (traced runs).
	events []stageEvent
}

type stageEvent struct {
	at time.Time
	p  hpss.WarmProgress
}

// warm stages every timestep under a fresh base name through
// hpss.WarmTimesteps, from an in-memory archive with no retrieval delay.
func (e *stageEnv) warm(ctx context.Context, traced bool, w *window) (*stageOp, string, error) {
	e.ops++
	base := fmt.Sprintf("stage%06d", e.ops)
	archive := hpss.NewArchive()
	for t, data := range e.encoded {
		archive.Store(dpss.TimestepDatasetName(base, t), data)
	}
	op := &stageOp{}
	var mu sync.Mutex
	done := make(map[string]int)
	cfg := hpss.WarmConfig{OnProgress: func(p hpss.WarmProgress) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if traced {
			op.events = append(op.events, stageEvent{now, p})
		}
		if p.Done && p.Err == "" {
			done[p.File]++
			if done[p.File] == stageReplicas {
				op.completed = append(op.completed, now)
			}
		}
	}}
	u0 := sampleUsage()
	op.start = time.Now()
	report, err := hpss.WarmTimesteps(ctx, archive, e.fb, base, stageSteps, cfg)
	op.end = time.Now()
	w.add(u0)
	op.report = report
	return op, base, err
}

// verify reads every file back from each cluster and compares it with the
// archive copy, then removes the datasets. It runs outside the timed region.
func (e *stageEnv) verify(ctx context.Context, op *stageOp, base string) error {
	var errs []error
	if n := len(op.report.Files); n != stageSteps {
		errs = append(errs, fmt.Errorf("warmed %d files, want %d", n, stageSteps))
	}
	for _, f := range op.report.Files {
		if !f.Complete() || len(f.Replicas) != stageReplicas {
			errs = append(errs, fmt.Errorf("%s: %d replicas, complete %v", f.File, len(f.Replicas), f.Complete()))
		}
	}
	if len(op.completed) != stageSteps {
		errs = append(errs, fmt.Errorf("%d files reported every replica done, want %d", len(op.completed), stageSteps))
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci, client := range e.readers {
		wg.Add(1)
		go func(ci int, client *dpss.Client) {
			defer wg.Done()
			fail := func(err error) {
				mu.Lock()
				errs = append(errs, fmt.Errorf("cluster%d: %w", ci, err))
				mu.Unlock()
			}
			buf := make([]byte, len(e.encoded[0]))
			for t, want := range e.encoded {
				name := dpss.TimestepDatasetName(base, t)
				f, err := client.Open(name)
				if err != nil {
					fail(err)
					continue
				}
				if f.Size() != int64(len(want)) {
					fail(fmt.Errorf("%s holds %d bytes, want %d", name, f.Size(), len(want)))
				} else if _, err := f.ReadAtContext(ctx, buf[:len(want)], 0); err != nil {
					fail(fmt.Errorf("reading %s: %w", name, err))
				} else if !bytes.Equal(buf[:len(want)], want) {
					fail(fmt.Errorf("%s reads back different bytes", name))
				}
				f.Close()
			}
			for t := range e.encoded {
				if err := client.RemoveContext(ctx, dpss.TimestepDatasetName(base, t)); err != nil {
					fail(err)
				}
			}
		}(ci, client)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// addWarm records one checked warm: its files' completions and the bytes
// written to all replicas.
func (s *samples) addWarm(op *stageOp) {
	sort.Slice(op.completed, func(i, j int) bool { return op.completed[i].Before(op.completed[j]) })
	var written int64
	for _, f := range op.report.Files {
		for _, r := range f.Replicas {
			written += r.Bytes
		}
	}
	s.add(op.start, op.end, op.completed, written)
}

// runStage measures stage-wan; see runWorkload.
func runStage(ctx context.Context, o options) (*result, error) {
	setups := make([]float64, 0, o.setups)
	var env *stageEnv
	for i := 0; i < o.setups; i++ {
		if env != nil {
			env.Close()
		}
		t0 := time.Now()
		var err error
		if env, err = setupStage(o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.Close()

	r := &result{metrics: map[string]metric{}}
	measure := o.seconds
	if o.trace {
		measure /= 2
	}
	loop := func(traced bool, measure time.Duration, s *samples, w *window, each func(*stageOp)) {
		closedLoop(measure, o.minimal, s.enough, func() {
			r.attempted++
			op, base, err := env.warm(ctx, traced, w)
			if err == nil {
				err = env.verify(ctx, op, base)
			}
			if err != nil {
				r.fail(err)
				return
			}
			s.addWarm(op)
			if each != nil {
				each(op)
			}
		})
	}
	var s samples
	var w window
	loop(false, measure, &s, &w, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !o.trace {
		r.setEndToEnd(&s, &w, setups)
		return r, nil
	}

	tr := newTracer()
	var ts samples
	var tw window
	var blockUS, replicaMBps, fileMS []float64
	ops := 0
	loop(true, measure, &ts, &tw, func(op *stageOp) {
		ops++
		traceStage(tr, op, ops)
		last := make(map[[2]string]time.Time)
		for _, ev := range op.events {
			k := [2]string{ev.p.File, ev.p.Cluster}
			if prev, ok := last[k]; ok && !ev.p.Done {
				blockUS = append(blockUS, us(ev.at.Sub(prev)))
			}
			last[k] = ev.at
		}
		for _, f := range op.report.Files {
			fileMS = append(fileMS, ms(f.Elapsed))
			for _, rep := range f.Replicas {
				replicaMBps = append(replicaMBps, mbps(rep.Bytes, rep.Elapsed))
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ops == 0 {
		return nil, errors.New("no traced operation succeeded")
	}
	r.setLayer("dpss.stage_block_us", median(blockUS))
	r.setLayer("dpss.stage_replica_mbps", median(replicaMBps))
	r.setLayer("hpss.file_ms", median(fileMS))
	r.setLayer("hpss.file_ms_p90", p90(fileMS))
	r.setLayer("go.gc_cpu_frac", tw.gcFrac())
	r.setLayer("trace.overhead_frac", traceOverhead(&ts, &s))
	r.zeroUnmeasuredLayers()

	report(tr, tr.snapshot(), o, ops)
	return r, nil
}

// traceStage records one warm as spans, reconstructed from the warm
// report's durations and the progress events' arrival times: the operation;
// each file, its archive retrieval and each replica's write; and the
// blocking path. Files overlap (the warm-ahead window) and replicas write in
// parallel, so the blocking path is a chain of windows, one per file in
// completion order, each linking the file's retrieval and its slowest
// replica write.
func traceStage(tr *tracer, op *stageOp, run int) {
	rootID := tr.add("hpss.warm", 0, op.start, op.end, run, -1, -1, 0)
	doneAt := make(map[[2]string]time.Time)
	for _, ev := range op.events {
		if ev.p.Done {
			doneAt[[2]string{ev.p.File, ev.p.Cluster}] = ev.at
		}
	}
	type fileSpans struct {
		end                   time.Time
		retrieveID, slowestID int
	}
	files := make([]fileSpans, 0, len(op.report.Files))
	for i, f := range op.report.Files {
		var fs fileSpans
		var slowest time.Duration
		for _, rep := range f.Replicas {
			if at := doneAt[[2]string{f.File, rep.Cluster}]; at.After(fs.end) {
				fs.end = at
			}
		}
		start := fs.end.Add(-f.Elapsed)
		tr.add("hpss.file", 0, start, fs.end, run, i, -1, f.Bytes)
		fs.retrieveID = tr.add("hpss.retrieve", 0, start, start.Add(f.RetrievalTime), run, i, -1, f.Bytes)
		for _, rep := range f.Replicas {
			at := doneAt[[2]string{f.File, rep.Cluster}]
			id := tr.add("dpss.stage", 0, at.Add(-rep.Elapsed), at, run, i, -1, rep.Bytes)
			if rep.Elapsed >= slowest {
				slowest, fs.slowestID = rep.Elapsed, id
			}
		}
		files = append(files, fs)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].end.Before(files[j].end) })
	prev := op.start
	for i, fs := range files {
		winID := tr.add("hpss.step", rootID, prev, fs.end, run, i, -1, 0)
		tr.setParent(fs.retrieveID, winID)
		tr.setParent(fs.slowestID, winID)
		prev = fs.end
	}
}
