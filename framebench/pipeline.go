package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"visapult/internal/backend/framecache"
	"visapult/internal/datagen"
	"visapult/internal/dpss"
	"visapult/internal/netsim"
	"visapult/internal/volume"
	"visapult/pkg/visapult"
)

// Dataset and cluster shape shared by every workload: 128x64x64 float32
// combustion timesteps (2 MiB each) on clusters of 2 block servers x 2 disks
// whose every server connection is capped at wanRate, the window-limited WAN
// socket that makes striping pay off. At 8 MiB/s per connection a 2-CPU
// machine is CPU-bound (the loopback sends alone take most of a core), so
// frame times follow the machine's load rather than the WAN; at 4 MiB/s
// the WAN sets the pace with CPU to spare.
const (
	nx, ny, nz     = 128, 64, 64
	corridorSteps  = 24
	servers        = 2
	disksPerServer = 2
	wanRate        = 4 << 20
	stripes        = 4
	datasetBase    = "combustion"
	cacheCapacity  = 256 << 20
)

// pipelineWorkload is one Manager-driven workload: the PE count, whether
// measured runs replay a frame cache warmed in set-up, and whether the viewer
// runs its 16 ms render loop.
type pipelineWorkload struct {
	pes        int
	replay     bool
	renderLoop bool
}

// The replay leaves the render loop off. A full-cache replay reaches the
// loop's Stop about 15 ms after the loop starts, right at its first 16 ms
// tick; whether that tick composites first (and Stop waits for it) splits
// runs into two modes 15 ms apart, and the median jumps between them.
var pipelineWorkloads = map[string]pipelineWorkload{
	"corridor-wan": {pes: 2, renderLoop: true},
	"replay-view":  {pes: 4, replay: true},
}

// generate builds the seeded combustion timesteps, one goroutine per CPU.
func generate(seed int64, steps int) []*volume.Volume {
	gen := datagen.NewCombustion(datagen.CombustionConfig{NX: nx, NY: ny, NZ: nz, Timesteps: steps, Seed: seed})
	vols := make([]*volume.Volume, steps)
	next := make(chan int, steps)
	for t := range vols {
		next <- t
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				vols[t] = gen.Generate(t)
			}
		}()
	}
	wg.Wait()
	return vols
}

// startCluster launches one in-process DPSS cluster, WAN-shaped if asked.
func startCluster(shaped bool) (*dpss.Cluster, error) {
	cfg := dpss.ClusterConfig{Servers: servers, DisksPerServer: disksPerServer}
	if shaped {
		cfg.PerConnShaper = func() *netsim.Shaper { return netsim.NewShaper(wanRate, 64<<10) }
	}
	return dpss.StartCluster(cfg)
}

// imageHash digests a composited image bit-exactly.
func imageHash(img *visapult.Image) string {
	if img == nil {
		return "no image"
	}
	h := sha256.New()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(img.W))
	h.Write(buf[:])
	binary.LittleEndian.PutUint32(buf[:], uint32(img.H))
	h.Write(buf[:])
	for _, v := range img.Pix {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pipelineEnv is one set-up pipeline workload: the staged cluster, the spec
// every run submits, the reference image, and the Manager runs go through.
type pipelineEnv struct {
	wl        pipelineWorkload
	cluster   *dpss.Cluster
	spec      visapult.RunSpec
	refHash   string
	stepBytes int64
	mgr       *visapult.Manager
	// cache is the benchmark-owned frame cache of traced replay runs.
	cache *framecache.Cache
	ops   int
}

// setupPipeline starts the cluster, generates and stages the seeded
// timesteps, computes the reference image from an in-memory run of the same
// volumes, and warms the frame caches of replay workloads.
func setupPipeline(ctx context.Context, wl pipelineWorkload, seed int64, traced bool) (_ *pipelineEnv, err error) {
	vols := generate(seed, corridorSteps)
	cl, err := startCluster(true)
	if err != nil {
		return nil, err
	}
	e := &pipelineEnv{wl: wl, cluster: cl, stepBytes: vols[0].SizeBytes()}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	fabricSpec := visapult.FabricSpec{
		Clusters:    []visapult.FabricClusterSpec{{Name: "corridor", Master: cl.MasterAddr}},
		Replication: 1,
		Stripes:     stripes,
	}
	fb, err := fabricSpec.Build(0)
	if err != nil {
		return nil, err
	}
	for t, v := range vols {
		if _, err := fb.LoadBytes(ctx, dpss.TimestepDatasetName(datasetBase, t), v.Marshal(), 0); err != nil {
			fb.Close()
			return nil, fmt.Errorf("staging timestep %d: %w", t, err)
		}
	}
	fb.Close()

	src, err := visapult.NewMemorySource(vols...)
	if err != nil {
		return nil, err
	}
	ref, err := visapult.New(visapult.WithSource(src), visapult.WithPEs(wl.pes), visapult.WithMode(visapult.Overlapped))
	if err != nil {
		return nil, err
	}
	refRes, err := ref.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if refRes.FinalImage == nil {
		return nil, fmt.Errorf("reference run produced no image")
	}
	e.refHash = imageHash(refRes.FinalImage)

	e.spec = visapult.RunSpec{
		Source: visapult.SourceSpec{
			Kind: "fabric", NX: nx, NY: ny, NZ: nz,
			Timesteps: corridorSteps, Base: datasetBase,
		},
		PEs:        wl.pes,
		Mode:       "overlapped",
		Transport:  "tcp",
		RenderLoop: wl.renderLoop,
		Fabric:     &fabricSpec,
	}
	e.mgr = visapult.NewManager(1)
	if wl.replay {
		e.mgr.SetFrameCacheCapacity(cacheCapacity)
		// The warm-up run renders every slab into the cache; it is a miss.
		op, err := e.managerOp(ctx)
		if err != nil {
			return nil, fmt.Errorf("frame cache warm-up: %w", err)
		}
		if err := e.check(op, false); err != nil {
			return nil, fmt.Errorf("frame cache warm-up: %w", err)
		}
		if traced {
			e.cache = framecache.New(cacheCapacity)
			top, err := e.tracedOp(ctx, newTracer(), 0)
			if err != nil {
				return nil, fmt.Errorf("traced frame cache warm-up: %w", err)
			}
			if err := e.check(&top.pipeOp, false); err != nil {
				return nil, fmt.Errorf("traced frame cache warm-up: %w", err)
			}
		}
	}
	return e, nil
}

// Close releases the Manager and the cluster.
func (e *pipelineEnv) Close() {
	if e.mgr != nil {
		e.mgr.Close()
	}
	e.cluster.Close()
}

// pipeOp is what one pipeline run delivered, as the benchmark observed it.
type pipeOp struct {
	start, end time.Time
	// delivered[t] is when the last PE's frame metric for timestep t
	// arrived; zero if it never did.
	delivered []time.Time
	// pairs counts the distinct (timestep, PE) frame metrics in the run's
	// complete record (Manager.Metrics; the hook's calls on traced runs).
	pairs int
	// dropped counts the frame metrics the subscription's bounded buffer
	// discarded because the subscriber fell behind.
	dropped int64
	res     *visapult.Result
	hash    string
}

// deliveryLog collects frame metrics as they arrive and stamps each
// timestep when its last PE reports.
type deliveryLog struct {
	pes       int
	seen      map[[2]int]bool
	perStep   []int
	delivered []time.Time
}

func newDeliveryLog(steps, pes int) *deliveryLog {
	return &deliveryLog{pes: pes, seen: make(map[[2]int]bool), perStep: make([]int, steps), delivered: make([]time.Time, steps)}
}

func (d *deliveryLog) add(frame, pe int, at time.Time) {
	if frame < 0 || frame >= len(d.perStep) || d.seen[[2]int{frame, pe}] {
		return
	}
	d.seen[[2]int{frame, pe}] = true
	d.perStep[frame]++
	if d.perStep[frame] == d.pes {
		d.delivered[frame] = at
	}
}

// managerOp runs the spec once through the production entry point:
// Manager.CreateSpec, SubscribeMetrics, Start and Wait.
func (e *pipelineEnv) managerOp(ctx context.Context) (*pipeOp, error) {
	e.ops++
	name := fmt.Sprintf("run-%06d", e.ops)
	if err := e.mgr.CreateSpec(name, e.spec); err != nil {
		return nil, err
	}
	defer e.mgr.Remove(name) //nolint:errcheck // the run is terminal once Wait returns
	sub, err := e.mgr.SubscribeMetrics(name)
	if err != nil {
		return nil, err
	}
	defer sub.Cancel()
	// The receiver only stamps arrivals; bookkeeping waits for the run to
	// end so the subscription's bounded buffer drains as fast as it fills.
	type arrival struct {
		frame, pe int
		at        time.Time
	}
	arrivals := make([]arrival, 0, 2*corridorSteps*e.wl.pes)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for fm := range sub.C {
			arrivals = append(arrivals, arrival{fm.Frame, fm.PE, time.Now()})
		}
	}()
	op := &pipeOp{start: time.Now()}
	if err := e.mgr.Start(name); err != nil {
		return nil, err
	}
	res, err := e.mgr.Wait(ctx, name)
	op.end = time.Now()
	<-drained // the subscription closes when the run finishes
	if err != nil {
		return nil, err
	}
	log := newDeliveryLog(corridorSteps, e.wl.pes)
	for _, a := range arrivals {
		log.add(a.frame, a.pe, a.at)
	}
	op.res = res
	op.delivered = log.delivered
	op.dropped = sub.Dropped()
	// The subscription may drop under a burst; the run's record is complete.
	record, err := e.mgr.Metrics(name)
	if err != nil {
		return nil, err
	}
	all := newDeliveryLog(corridorSteps, e.wl.pes)
	for _, fm := range record {
		all.add(fm.Frame, fm.PE, time.Time{})
	}
	op.pairs = len(all.seen)
	op.hash = imageHash(res.FinalImage)
	return op, nil
}

// check verifies one run: every timestep from every PE recorded and
// received by the viewer, the bytes loaded (all of them on a miss; none, and
// every frame a cache hit, on a replay), and the final image equal to the
// reference.
func (e *pipelineEnv) check(op *pipeOp, wantHit bool) error {
	want := corridorSteps * e.wl.pes
	if op.pairs != want {
		return fmt.Errorf("received %d (timestep, PE) frame metrics, want %d", op.pairs, want)
	}
	if n := len(op.res.Backend.PerFrame); n != want {
		return fmt.Errorf("back end recorded %d frames, want %d", n, want)
	}
	if v := op.res.Viewer; v.PayloadsReceived != want || v.FramesCompleted != corridorSteps {
		return fmt.Errorf("viewer received %d payloads and completed %d timesteps, want %d and %d",
			v.PayloadsReceived, v.FramesCompleted, want, corridorSteps)
	}
	if wantHit {
		if op.res.Backend.BytesIn != 0 {
			return fmt.Errorf("replay loaded %d bytes, want 0", op.res.Backend.BytesIn)
		}
		for _, f := range op.res.Backend.PerFrame {
			if !f.CacheHit {
				return fmt.Errorf("timestep %d PE %d missed the frame cache", f.Frame, f.PE)
			}
		}
	} else if got, want := op.res.Backend.BytesIn, int64(corridorSteps)*e.stepBytes; got != want {
		return fmt.Errorf("loaded %d bytes, want %d", got, want)
	}
	if op.hash != e.refHash {
		return fmt.Errorf("final image hash %.12s differs from reference %.12s", op.hash, e.refHash)
	}
	return nil
}

// pipelineSamples adds to samples what only pipeline runs have.
type pipelineSamples struct {
	samples
	overheadMS []float64
	ops        int
	dropped    int64
}

func (s *pipelineSamples) add(op *pipeOp, stepBytes int64) {
	s.samples.add(op.start, op.end, op.delivered, int64(len(op.delivered))*stepBytes)
	s.overheadMS = append(s.overheadMS, ms(op.end.Sub(op.start)-op.res.Elapsed))
	s.ops++
	s.dropped += op.dropped
}

// runPipeline measures one pipeline workload; see runWorkload.
func runPipeline(ctx context.Context, wl pipelineWorkload, o options) (*result, error) {
	setups := make([]float64, 0, o.setups)
	var env *pipelineEnv
	for i := 0; i < o.setups; i++ {
		if env != nil {
			env.Close()
		}
		t0 := time.Now()
		var err error
		env, err = setupPipeline(ctx, wl, o.seed, o.trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.Close()

	r := &result{metrics: map[string]metric{}}
	measure := o.seconds
	if o.trace {
		// The untraced half is the reference trace.overhead_frac compares
		// against; the traced half gives the per-layer figures.
		measure /= 2
	}
	var s pipelineSamples
	var w window
	closedLoop(measure, o.minimal, s.enough, func() {
		r.attempted++
		u0 := sampleUsage()
		op, err := env.managerOp(ctx)
		w.add(u0)
		if err == nil {
			err = env.check(op, wl.replay)
		}
		if err != nil {
			r.fail(err)
			return
		}
		s.add(op, env.stepBytes)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !o.trace {
		r.setEndToEnd(&s.samples, &w, setups)
		return r, nil
	}
	return runPipelineTraced(ctx, env, o, r, &s)
}
