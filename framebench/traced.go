package main

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"time"

	"visapult/internal/backend"
	"visapult/internal/viewer"
	"visapult/internal/volume"
	"visapult/internal/wire"
	"visapult/pkg/visapult"
)

// timedSource is a backend.DataSource decorator timing every LoadRegion.
type timedSource struct {
	backend.DataSource
	tr       *tracer
	run, pes int
}

func (s *timedSource) LoadRegion(ctx context.Context, t int, r volume.Region) (*volume.Volume, int64, error) {
	start := time.Now()
	v, n, err := s.DataSource.LoadRegion(ctx, t, r)
	s.tr.add("dpss.load", 0, start, time.Now(), s.run, t, s.rank(r), n)
	return v, n, err
}

// rank recovers the PE that asked for region r from the back end's slab
// decomposition; -1 if r is no PE's slab.
func (s *timedSource) rank(r volume.Region) int {
	for axis := volume.AxisX; axis <= volume.AxisZ; axis++ {
		for i, slab := range volume.Slabs(nx, ny, nz, axis, s.pes) {
			if slab == r {
				return i
			}
		}
	}
	return -1
}

// timedSink is a backend.FrameSink decorator around one PE's wire.Conn,
// timing the light-then-heavy send of each frame.
type timedSink struct {
	conn      *wire.Conn
	tr        *tracer
	run, pe   int
	lightAt   time.Time
	lightSize int64
}

func (s *timedSink) SendLight(lp *wire.LightPayload) error {
	s.lightAt = time.Now()
	s.lightSize = lp.WireSize()
	return s.conn.SendLight(lp)
}

func (s *timedSink) SendHeavy(hp *wire.HeavyPayload) error {
	err := s.conn.SendHeavy(hp)
	s.tr.add("wire.send", 0, s.lightAt, time.Now(), s.run, hp.Frame, s.pe, s.lightSize+hp.WireSize())
	return err
}

// tracedRun is one traced pipeline operation.
type tracedRun struct {
	pipeOp
	vw *viewer.Viewer
}

// tracedOp runs the pipeline once, assembled from the constructors the
// session layer uses (backend.New over a decorated FabricSource and
// decorated per-PE wire.Conns, viewer.New serving the accepted TCP
// connections) with the benchmark driving the viewer's 16 ms composite loop.
func (e *pipelineEnv) tracedOp(ctx context.Context, tr *tracer, run int) (_ *tracedRun, err error) {
	pes := e.wl.pes
	firstSpan := tr.len()
	op := &tracedRun{pipeOp: pipeOp{start: time.Now()}}
	fb, err := e.spec.Fabric.Build(0)
	if err != nil {
		return nil, err
	}
	defer fb.Close()
	fsrc, err := backend.NewFabricSource(fb, datasetBase, nx, ny, nz, corridorSteps)
	if err != nil {
		return nil, err
	}
	defer fsrc.Close()
	vw, err := viewer.New(viewer.Config{PEs: pes, Timesteps: corridorSteps})
	if err != nil {
		return nil, err
	}
	op.vw = vw

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var beConns, vConns []*wire.Conn
	var serveWG, hintWG sync.WaitGroup
	var closeOnce sync.Once
	closeAll := func() {
		closeOnce.Do(func() {
			for _, c := range append(beConns, vConns...) {
				c.Close()
			}
			serveWG.Wait()
			hintWG.Wait()
		})
	}
	defer closeAll()
	for i := 0; i < pes; i++ {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		beConns = append(beConns, wire.NewConn(c))
		a, err := l.Accept()
		if err != nil {
			return nil, err
		}
		vConns = append(vConns, wire.NewConn(a))
	}
	serveErrs := make([]error, pes)
	sinks := make([]backend.FrameSink, pes)
	for i := 0; i < pes; i++ {
		serveWG.Add(1)
		go func(i int) {
			defer serveWG.Done()
			serveErrs[i] = vw.ServeConn(vConns[i])
		}(i)
		// The viewer answers every frame with an axis hint; drain them as
		// the session layer does.
		hintWG.Add(1)
		go func(c *wire.Conn) {
			defer hintWG.Done()
			for {
				if _, err := c.ReadMessage(); err != nil {
					return
				}
			}
		}(beConns[i])
		sinks[i] = &timedSink{conn: beConns[i], tr: tr, run: run, pe: i}
	}

	var mu sync.Mutex
	log := newDeliveryLog(corridorSteps, pes)
	lastPE := make([]int, corridorSteps)
	onFrame := func(fs backend.FrameStats) {
		now := time.Now()
		if !fs.CacheHit {
			end := now.Add(-fs.Send)
			tr.add("render.slab", 0, end.Add(-fs.Render), end, run, fs.Frame, fs.PE, int64(fs.TilesSkipped))
		}
		mu.Lock()
		log.add(fs.Frame, fs.PE, now)
		lastPE[fs.Frame] = fs.PE
		mu.Unlock()
	}
	cfg := backend.Config{
		PEs:     pes,
		Mode:    backend.Overlapped,
		Source:  &timedSource{DataSource: fsrc, tr: tr, run: run, pes: pes},
		Sinks:   sinks,
		OnFrame: onFrame,
	}
	if e.cache != nil {
		cfg.Cache, cfg.CacheDataset, cfg.CacheTF = e.cache, "framebench/"+datasetBase, "default"
	}
	be, err := backend.New(cfg)
	if err != nil {
		return nil, err
	}

	stopLoop := make(chan struct{})
	loopDone := make(chan struct{})
	if e.spec.RenderLoop {
		go compositeLoop(vw, tr, run, stopLoop, loopDone)
	} else {
		close(loopDone)
	}
	stats, runErr := be.Run(ctx)
	var doneErr error
	for _, c := range beConns {
		if err := c.SendDone(); err != nil && doneErr == nil {
			doneErr = err
		}
	}
	serveWG.Wait()
	close(stopLoop)
	<-loopDone
	closeAll()
	if err := errors.Join(runErr, doneErr, errors.Join(serveErrs...)); err != nil {
		return nil, err
	}
	finalStart := time.Now()
	img, err := vw.CompositeView()
	if err != nil {
		return nil, err
	}
	op.end = time.Now()
	finalID := tr.add("viewer.final", 0, finalStart, op.end, run, -1, -1, 0)
	op.res = &visapult.Result{Backend: stats, Viewer: vw.Stats(), Elapsed: op.end.Sub(op.start), FinalImage: img}
	op.hash = imageHash(img)
	op.delivered = log.delivered
	op.pairs = len(log.seen)
	linkBlockingPath(tr, op, lastPE, firstSpan, finalID, run)
	return op, nil
}

// compositeLoop re-composites the viewer's scene every 16 ms when it has
// changed, the cadence of viewer.StartRenderLoop, timing each composite.
func compositeLoop(vw *viewer.Viewer, tr *tracer, run int, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(16 * time.Millisecond)
	defer ticker.Stop()
	var last uint64
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			v := vw.Scene().Version()
			if v == last && v != 0 {
				continue
			}
			last = v
			start := time.Now()
			vw.RenderOnce()
			tr.add("viewer.composite", 0, start, time.Now(), run, -1, -1, 0)
		}
	}
}

// linkBlockingPath adds the operation's root and per-timestep window spans
// and links under them the spans that blocked delivery: for each timestep,
// the load, render and send of the PE that finished it last; after the last
// timestep, the viewer's assembly of it and the final composite.
func linkBlockingPath(tr *tracer, op *tracedRun, lastPE []int, firstSpan, finalID, run int) {
	rootID := tr.add("manager.run", 0, op.start, op.end, run, -1, -1, 0)
	tr.setParent(finalID, rootID)
	spans := tr.snapshotFrom(firstSpan)
	type key struct{ frame, pe int }
	byKey := make(map[key][]int) // (frame, pe) -> load, render and send span IDs
	lastSendEnd := make([]int64, corridorSteps)
	winStart := tr.at(op.end)
	for _, s := range spans {
		if s.Run != run || s.Frame < 0 || s.Frame >= corridorSteps {
			continue
		}
		switch s.Name {
		case "dpss.load", "render.slab", "wire.send":
			byKey[key{s.Frame, s.PE}] = append(byKey[key{s.Frame, s.PE}], s.ID)
		}
		if s.Name == "wire.send" {
			lastSendEnd[s.Frame] = max(lastSendEnd[s.Frame], s.End)
		}
		// The first window opens with the first timestep's first load, or
		// on a replay, which loads nothing, its first send.
		if s.Frame == 0 && (s.Name == "dpss.load" || s.Name == "wire.send") {
			winStart = min(winStart, s.Start)
		}
	}
	for t, at := range op.delivered {
		frameID := tr.add("backend.frame", rootID, tr.spanTime(winStart), at, run, t, lastPE[t], 0)
		for _, id := range byKey[key{t, lastPE[t]}] {
			tr.setParent(id, frameID)
		}
		winStart = tr.at(at)
	}
	frames := op.vw.Frames()
	for _, f := range frames {
		if f.Completed.IsZero() || f.Frame < 0 || f.Frame >= corridorSteps {
			continue
		}
		id := tr.add("viewer.assemble", 0, tr.spanTime(lastSendEnd[f.Frame]), f.Completed, run, f.Frame, -1, 0)
		if f.Frame == corridorSteps-1 {
			tr.setParent(id, rootID)
		}
	}
}

// spanTime converts tracer nanoseconds back to a wall-clock time.
func (t *tracer) spanTime(ns int64) time.Time { return t.epoch.Add(time.Duration(ns)) }

// redrawCount is how many times the final scene is redrawn, alone, to time
// one composite without contention.
const redrawCount = 20

// runPipelineTraced measures the per-layer metrics of a pipeline workload
// after the untraced half of the run measured through the Manager.
func runPipelineTraced(ctx context.Context, env *pipelineEnv, o options, r *result, untraced *pipelineSamples) (*result, error) {
	tr := newTracer()
	var s pipelineSamples
	var cacheHits0, cacheLookups0 int64
	if env.cache != nil {
		st := env.cache.Stats()
		cacheHits0, cacheLookups0 = st.Hits, st.Hits+st.Misses
	}
	var last *tracedRun
	var w window
	ops := 0
	closedLoop(o.seconds/2, o.minimal, s.enough, func() {
		ops++
		r.attempted++
		u0 := sampleUsage()
		op, err := env.tracedOp(ctx, tr, ops)
		w.add(u0)
		if err == nil {
			err = env.check(&op.pipeOp, env.wl.replay)
		}
		if err != nil {
			r.fail(err)
			return
		}
		s.add(&op.pipeOp, env.stepBytes)
		last = op
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if last == nil {
		return nil, errors.New("no traced operation succeeded")
	}

	// Redraw the final scene with nothing else running.
	var redraw []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < redrawCount; i++ {
		start := time.Now()
		last.vw.RenderOnce()
		redraw = append(redraw, ms(time.Since(start)))
	}
	runtime.ReadMemStats(&m1)

	spans := tr.snapshot()
	loadMS := durationsMS(spans, "dpss.load")
	var loadRate, firstLoad, tiles, sendBytes []float64
	firstByRun := make(map[int]span)
	for _, sp := range spans {
		switch sp.Name {
		case "dpss.load":
			loadRate = append(loadRate, mbps(sp.Count, sp.dur()))
			if f, ok := firstByRun[sp.Run]; !ok || sp.Start < f.Start {
				firstByRun[sp.Run] = sp
			}
		case "render.slab":
			tiles = append(tiles, float64(sp.Count))
		case "wire.send":
			sendBytes = append(sendBytes, float64(sp.Count))
		}
	}
	for _, sp := range firstByRun {
		firstLoad = append(firstLoad, ms(sp.dur()))
	}
	renderMS := durationsMS(spans, "render.slab")
	var sendUS, lagUS []float64
	for _, v := range durationsMS(spans, "wire.send") {
		sendUS = append(sendUS, v*1000)
	}
	for _, v := range durationsMS(spans, "viewer.assemble") {
		lagUS = append(lagUS, v*1000)
	}
	composites := durationsMS(spans, "viewer.composite")

	frameMS := median(s.frameMS)
	overlap := 0.0
	if lr := max(mean(loadMS), mean(renderMS)); lr > 0 {
		overlap = frameMS / lr
	}
	hitRatio := 0.0
	if env.cache != nil {
		st := env.cache.Stats()
		if lookups := st.Hits + st.Misses - cacheLookups0; lookups > 0 {
			hitRatio = float64(st.Hits-cacheHits0) / float64(lookups)
		}
	}
	pes := float64(env.wl.pes)

	r.setLayer("dpss.load_ms", median(loadMS))
	r.setLayer("dpss.load_ms_p90", p90(loadMS))
	r.setLayer("dpss.load_mbps", median(loadRate))
	r.setLayer("dpss.first_load_ms", median(firstLoad))
	r.setLayer("render.ms", median(renderMS))
	r.setLayer("render.tiles_skipped", mean(tiles))
	r.setLayer("backend.overlap_eff", overlap)
	r.setLayer("wire.send_us", median(sendUS))
	r.setLayer("wire.bytes_per_frame", mean(sendBytes)*pes)
	r.setLayer("viewer.arrival_lag_us", median(lagUS))
	r.setLayer("viewer.composite_ms", median(composites))
	r.setLayer("viewer.composite_ms_p90", p90(composites))
	r.setLayer("viewer.composites", float64(len(composites))/float64(ops))
	r.setLayer("viewer.redraw_ms", median(redraw))
	r.setLayer("viewer.redraw_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/redrawCount)
	r.setLayer("framecache.hit_ratio", hitRatio)
	r.setLayer("manager.overhead_ms", median(untraced.overheadMS))
	r.setLayer("manager.sub_drops", float64(untraced.dropped)/float64(max(untraced.ops, 1)))
	r.setLayer("go.gc_cpu_frac", w.gcFrac())
	r.setLayer("trace.overhead_frac", traceOverhead(&s.samples, &untraced.samples))
	r.zeroUnmeasuredLayers()

	report(tr, spans, o, ops)
	return r, nil
}
