package visapult

import (
	"errors"
	"fmt"

	"visapult/internal/backend"
	"visapult/internal/backend/framecache"
	"visapult/internal/core"
	"visapult/internal/netsim"
	"visapult/internal/wire"
)

// config collects everything the options can set; New validates it and Run
// translates it into the internal session configuration.
type config struct {
	source        Source
	pes           int
	timesteps     int
	mode          Mode
	axis          Axis
	tf            TransferFunction
	transport     Transport
	stripeLanes   int
	viewerShaper  *Shaper
	followView    bool
	viewAngle     float64
	instrument    bool
	renderLoop    bool
	discardViewer bool
	onFrame       func(FrameMetric)
	onSlab        func(light *wire.LightPayload, heavy *wire.HeavyPayload)
	viewers       int
	viewerQueue   int
	renderWorkers int
	onFanout      func(*core.FanoutControl)
	// fabric / fabricSpec select a federation-fed source (mutually exclusive
	// with an explicit source): a live handle the caller owns, or a
	// serializable spec the pipeline builds (and closes) per run.
	fabric      *Fabric
	fabricSpec  *FabricSpec
	fabricDS    FabricDataset
	replication int
	// frameCache / cacheDataset / cacheTF wire a shared slab-texture cache
	// into the back end; set only through the unexported withFrameCache, so
	// the cache identity is always derived from a canonicalized RunSpec.
	frameCache   *framecache.Cache
	cacheDataset string
	cacheTF      string
}

func defaultConfig() config {
	return config{pes: 4, stripeLanes: 2}
}

func (c *config) validate() error {
	hasFabric := c.fabric != nil || c.fabricSpec != nil
	if c.source == nil && !hasFabric {
		return errors.New("visapult: a Source is required (use WithSource or WithFabric)")
	}
	if c.source != nil && hasFabric {
		return errors.New("visapult: WithSource and WithFabric are mutually exclusive")
	}
	if c.fabric != nil && c.fabricSpec != nil {
		return errors.New("visapult: WithFabric and WithFabricSpec are mutually exclusive")
	}
	if hasFabric {
		if err := c.fabricDS.validate(); err != nil {
			return err
		}
		if c.fabricSpec != nil {
			// Validate the spec without dialing anything: fabric construction
			// is connection-free, so a throwaway build catches bad configs at
			// New instead of mid-queue.
			fb, err := c.fabricSpec.Build(c.replication)
			if err != nil {
				return err
			}
			fb.Close()
		}
	}
	if c.replication < 0 {
		return fmt.Errorf("visapult: replication must be non-negative, got %d", c.replication)
	}
	if c.pes <= 0 {
		return fmt.Errorf("visapult: PEs must be positive, got %d", c.pes)
	}
	if c.timesteps < 0 {
		return fmt.Errorf("visapult: timesteps must be non-negative, got %d", c.timesteps)
	}
	if c.stripeLanes <= 0 {
		return fmt.Errorf("visapult: stripe lanes must be positive, got %d", c.stripeLanes)
	}
	switch c.transport {
	case TransportLocal, TransportTCP, TransportStriped:
	default:
		return fmt.Errorf("visapult: unknown transport %d", c.transport)
	}
	if c.discardViewer && c.transport != TransportLocal {
		return errors.New("visapult: WithoutViewer requires the local transport")
	}
	if c.viewers < 0 {
		return fmt.Errorf("visapult: viewer count must be non-negative, got %d", c.viewers)
	}
	if c.renderWorkers < 0 {
		return fmt.Errorf("visapult: render workers must be non-negative, got %d", c.renderWorkers)
	}
	if c.discardViewer && c.viewers > 0 {
		return errors.New("visapult: WithViewers and WithoutViewer are mutually exclusive")
	}
	return nil
}

// resolveSource returns the run's data source — the explicit one, or a
// fabric-backed source built from the WithFabric handle or the
// WithFabricSpec description — plus a cleanup releasing whatever the
// resolution created (dataset handles always; the federation itself only
// when this run built it from a spec).
func (c *config) resolveSource() (Source, func(), error) {
	if c.source != nil {
		return c.source, func() {}, nil
	}
	fb := c.fabric
	owned := false
	if fb == nil {
		var err error
		fb, err = c.fabricSpec.Build(c.replication)
		if err != nil {
			return nil, nil, err
		}
		owned = true
	}
	ds := c.fabricDS
	src, err := NewFabricSource(fb, ds.Base, ds.NX, ds.NY, ds.NZ, ds.Timesteps)
	if err != nil {
		if owned {
			fb.Close()
		}
		return nil, nil, err
	}
	cleanup := func() {
		src.Close()
		if owned {
			fb.Close()
		}
	}
	return src, cleanup, nil
}

func (c *config) sessionConfig() core.SessionConfig {
	sc := core.SessionConfig{
		PEs:           c.pes,
		Timesteps:     c.timesteps,
		Mode:          c.mode,
		Axis:          c.axis,
		Source:        c.source,
		TF:            c.tf,
		Transport:     c.transport,
		StripeLanes:   c.stripeLanes,
		ViewerShaper:  c.viewerShaper,
		FollowView:    c.followView,
		ViewAngle:     c.viewAngle,
		Instrument:    c.instrument,
		RenderLoop:    c.renderLoop,
		OnFrame:       c.onFrame,
		OnSlab:        c.onSlab,
		Viewers:       c.viewers,
		ViewerQueue:   c.viewerQueue,
		RenderWorkers: c.renderWorkers,
		Cache:         c.frameCache,
		CacheDataset:  c.cacheDataset,
		CacheTF:       c.cacheTF,
	}
	if c.viewers >= 1 {
		sc.OnFanout = c.onFanout
	}
	return sc
}

// Option configures a Pipeline built by New.
type Option func(*config)

// WithSource sets the data source feeding the back end. Required.
func WithSource(s Source) Option {
	return func(c *config) { c.source = s }
}

// WithPEs sets the number of back-end processing elements (default 4, the
// paper's first-light configuration).
func WithPEs(n int) Option {
	return func(c *config) { c.pes = n }
}

// WithTimesteps bounds the number of timesteps processed; 0 (the default)
// processes every timestep the source offers.
func WithTimesteps(n int) Option {
	return func(c *config) { c.timesteps = n }
}

// WithMode selects how each PE schedules loading relative to rendering:
// Serial, Overlapped, or OverlappedProcessPair (default Serial).
func WithMode(m Mode) Option {
	return func(c *config) { c.mode = m }
}

// WithAxis sets the initial slab decomposition axis (default X).
func WithAxis(a Axis) Option {
	return func(c *config) { c.axis = a }
}

// WithTransferFunction overrides the volume-rendering transfer function; the
// default is the combustion palette.
func WithTransferFunction(tf TransferFunction) Option {
	return func(c *config) { c.tf = tf }
}

// WithTransport selects how payloads reach the viewer: TransportLocal (an
// in-process sink, the default), TransportTCP (one connection per PE, the
// paper's layout), or TransportStriped (a striped socket bundle per PE,
// section 3.4).
func WithTransport(t Transport) Option {
	return func(c *config) { c.transport = t }
}

// WithStripeLanes sets the number of sockets per PE for TransportStriped
// (default 2).
func WithStripeLanes(n int) Option {
	return func(c *config) { c.stripeLanes = n }
}

// WithViewerShaper throttles the back-end-to-viewer writes through the given
// token-bucket shaper, emulating a WAN between them.
func WithViewerShaper(s *Shaper) Option {
	return func(c *config) { c.viewerShaper = s }
}

// WithViewerBandwidth is WithViewerShaper for the common case: it caps the
// back-end-to-viewer path at the given rate in bits per second.
func WithViewerBandwidth(bitsPerSec float64) Option {
	return func(c *config) { c.viewerShaper = netsim.NewShaper(bitsPerSec/8, 64<<10) }
}

// WithFollowView makes the viewer feed best-axis hints back to the back end
// after every completed frame (section 3.3's IBRAVR axis switching).
func WithFollowView() Option {
	return func(c *config) { c.followView = true }
}

// WithViewAngle sets the viewer camera's rotation about Y in radians.
func WithViewAngle(radians float64) Option {
	return func(c *config) { c.viewAngle = radians }
}

// WithInstrumentation enables NetLogger instrumentation on both components;
// the merged event stream is returned in Result.Events.
func WithInstrumentation() Option {
	return func(c *config) { c.instrument = true }
}

// WithRenderLoop starts the viewer's decoupled render goroutine for the
// duration of the run (the paper's desktop interactivity thread).
func WithRenderLoop() Option {
	return func(c *config) { c.renderLoop = true }
}

// WithoutViewer replaces the viewer with a discarding sink so the run
// measures only the load/render pipeline. Requires the local transport.
func WithoutViewer() Option {
	return func(c *config) { c.discardViewer = true }
}

// WithViewers runs the pipeline through the back end's fan-out stage with n
// concurrently attached in-process viewers: each frame is rendered once and
// its per-slab textures are multicast to every viewer (the paper's
// ImmersaDesk + tiled display exhibit). Every viewer gets its own bounded
// send queue, so one slow or dead viewer loses frames instead of stalling
// the render loop or the other viewers. The per-viewer outcome is reported
// in Result.Viewers. n = 0 (the default) selects the classic single-viewer
// pipeline without the fan-out stage.
func WithViewers(n int) Option {
	return func(c *config) { c.viewers = n }
}

// WithViewerQueue bounds each fan-out viewer's send queue in (PE, frame)
// texture pairs (default 32). Past the bound, frames are dropped for that
// viewer only.
func WithViewerQueue(n int) Option {
	return func(c *config) { c.viewerQueue = n }
}

// WithRenderWorkers sizes the back end's shared render pool: each slab
// render is tiled across min(GOMAXPROCS, n) goroutines that all PEs share,
// so concurrent PEs never oversubscribe the machine. n = 0 (the default)
// sizes the pool to GOMAXPROCS. The pool is bit-exact at any worker count —
// this knob changes frame latency, never pixels.
func WithRenderWorkers(n int) Option {
	return func(c *config) { c.renderWorkers = n }
}

// WithFabric feeds the pipeline from a live DPSS federation handle instead
// of a WithSource-supplied source: ds names the warmed time-series (each
// timestep a dataset base.tNNNN sharded and replicated across the fabric's
// clusters) and every region load is replica-aware — a dark or wedged
// cluster fails over to the next replica mid-run. The caller owns fb and its
// lifetime; the pipeline only opens dataset handles on it.
func WithFabric(fb *Fabric, ds FabricDataset) Option {
	return func(c *config) {
		c.fabric = fb
		c.fabricDS = ds
	}
}

// WithFabricSpec is WithFabric from a serializable federation description:
// the pipeline builds the fabric per run and closes it afterwards. This is
// the form RunSpec-described runs use, so a remote worker resolves the same
// clusters, placement and replication as the scheduler that dispatched it.
func WithFabricSpec(spec FabricSpec, ds FabricDataset) Option {
	return func(c *config) {
		c.fabricSpec = &spec
		c.fabricDS = ds
	}
}

// WithReplication overrides the replication factor of a WithFabricSpec- or
// RunSpec-built federation (the number of clusters each dataset is written
// to, default 2). It has no effect on a live WithFabric handle, whose factor
// was fixed when the fabric was built.
func WithReplication(r int) Option {
	return func(c *config) { c.replication = r }
}

// withFrameCache wires the shared slab-texture cache into the run. dataset
// and tf are the cache-identity strings derived from the run's canonicalized
// spec (RunSpec.cacheIdentity); a nil cache or empty dataset disables
// caching. Unexported: only spec-described runs have a content identity.
func withFrameCache(cache *framecache.Cache, dataset, tf string) Option {
	return func(c *config) {
		c.frameCache = cache
		c.cacheDataset = dataset
		c.cacheTF = tf
	}
}

// withSlabHook registers a callback receiving every rendered (or replayed)
// slab payload pair after it has been sent. Dispatch workers use it to
// stream raw slab textures back to the scheduler over the dispatch wire; the
// payloads are shared immutable data and the hook runs concurrently from
// the PE goroutines. Unexported: slab delivery is a protocol concern.
func withSlabHook(fn func(light *wire.LightPayload, heavy *wire.HeavyPayload)) Option {
	return func(c *config) { c.onSlab = fn }
}

// withFanoutControl registers a callback receiving the fan-out control
// handle once a WithViewers run is live; Manager uses it to expose dynamic
// viewer attach/detach.
func withFanoutControl(fn func(*core.FanoutControl)) Option {
	return func(c *config) { c.onFanout = fn }
}

// WithFrameHook registers a callback invoked once per (PE, timestep) as soon
// as that PE finishes sending the frame. It is called concurrently from the
// PE goroutines; Manager uses it to stream live metrics.
func WithFrameHook(fn func(FrameMetric)) Option {
	return func(c *config) {
		if fn == nil {
			return
		}
		prev := c.onFrame
		c.onFrame = func(fs backend.FrameStats) {
			if prev != nil {
				prev(fs)
			}
			fn(fs)
		}
	}
}
