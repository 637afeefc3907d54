// Package core orchestrates complete Visapult sessions and reproduces the
// paper's field-test campaigns.
//
// It offers two complementary execution paths:
//
//   - Session (session.go): a real, concurrent pipeline — data source
//     (in-memory, synthetic or DPSS), the parallel back end of
//     internal/backend, the wire protocol of internal/wire (optionally over
//     real TCP, optionally striped and bandwidth-shaped), and the viewer of
//     internal/viewer. Everything actually runs; NetLogger events carry real
//     wall-clock timestamps.
//
//   - Campaign (campaign.go): a virtual-clock simulation of the paper's
//     year-2000 field tests. The WAN testbeds (NTON, ESnet, SciNet), the
//     terabyte DPSS installations and the CPlant/Onyx2/E4500 platforms are
//     modelled with internal/netsim, internal/dpss.ThroughputModel and
//     internal/platform, so the experiments of Figures 10-17 can be
//     regenerated at the paper's scale (160 MB per timestep) in milliseconds
//     of real time.
//
// experiments.go maps every table and figure of the paper's evaluation onto
// one of those two paths (experiments E1-E12 of DESIGN.md).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"visapult/internal/backend"
	"visapult/internal/backend/framecache"
	"visapult/internal/netlogger"
	"visapult/internal/netsim"
	"visapult/internal/render"
	"visapult/internal/viewer"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// Transport selects how the back end's payloads reach the viewer in a
// Session.
type Transport int

// Session transports.
const (
	// TransportLocal delivers payloads with an in-process sink (no sockets).
	TransportLocal Transport = iota
	// TransportTCP gives every PE its own TCP connection to the viewer, the
	// paper's one-connection-per-PE layout.
	TransportTCP
	// TransportStriped gives every PE a striped bundle of TCP connections
	// (section 3.4's "striped sockets").
	TransportStriped
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case TransportTCP:
		return "tcp"
	case TransportStriped:
		return "striped-tcp"
	default:
		return "local"
	}
}

// SessionConfig describes one end-to-end Visapult run.
type SessionConfig struct {
	// PEs is the number of back-end processing elements.
	PEs int
	// Timesteps bounds the run; 0 means every timestep of the source.
	Timesteps int
	// Mode selects serial or overlapped loading in the back end.
	Mode backend.Mode
	// Axis is the initial slab decomposition axis.
	Axis volume.Axis
	// Source supplies the raw data (memory, synthetic, or DPSS).
	Source backend.DataSource
	// TF is the transfer function; nil selects the combustion default.
	TF render.TransferFunction
	// Transport selects local delivery or real sockets.
	Transport Transport
	// StripeLanes is the number of sockets per PE for TransportStriped
	// (default 2).
	StripeLanes int
	// ViewerShaper, when non-nil, throttles the back-end-to-viewer writes to
	// emulate a WAN between them. Only TransportTCP applies it.
	ViewerShaper *netsim.Shaper
	// FollowView makes the viewer feed best-axis hints back to the back end
	// (section 3.3 axis switching).
	FollowView bool
	// ViewAngle is the viewer's camera rotation about Y in radians.
	ViewAngle float64
	// Instrument enables NetLogger instrumentation on both components.
	Instrument bool
	// RenderLoop starts the viewer's decoupled render goroutine for the
	// duration of the run.
	RenderLoop bool
	// OnFrame, when non-nil, receives each PE's per-frame statistics as soon
	// as that PE finishes sending the frame. Called concurrently from the
	// back-end PE goroutines.
	OnFrame func(backend.FrameStats)
	// OnSlab, when non-nil, receives each rendered (or replayed) slab
	// payload pair after it has been sent; see backend.Config.OnSlab.
	// Called concurrently from the back-end PE goroutines.
	OnSlab func(light *wire.LightPayload, heavy *wire.HeavyPayload)
	// Viewers, when >= 1, runs the session through the back end's fan-out
	// stage with that many concurrently attached viewers (the paper's
	// ImmersaDesk + tiled display exhibit). Zero selects the classic
	// single-viewer pipeline.
	Viewers int
	// ViewerQueue bounds each attached viewer's send queue in (PE, frame)
	// pairs for fan-out sessions; <= 0 selects backend.DefaultViewerQueue.
	ViewerQueue int
	// RenderWorkers sizes the back end's shared render pool; <= 0 selects
	// GOMAXPROCS. See backend.Config.RenderWorkers.
	RenderWorkers int
	// OnFanout, when non-nil, receives the fan-out session's control handle
	// once the run is live, so callers can attach and detach viewers mid-run
	// and read per-viewer delivery metrics. Only invoked when Viewers >= 1.
	OnFanout func(*FanoutControl)
	// Cache, CacheDataset and CacheTF configure the content-addressed slab
	// cache in the back end; see backend.Config. A nil Cache (or empty
	// CacheDataset) disables caching for this session.
	Cache        *framecache.Cache
	CacheDataset string
	CacheTF      string
}

// SessionResult reports what a session did.
type SessionResult struct {
	Backend backend.RunStats
	// Viewer is the (primary) viewer's counter snapshot; for fan-out
	// sessions it is the first attached viewer's.
	Viewer viewer.Stats
	// Viewers reports every viewer of a fan-out session, in attach order
	// (empty for classic single-viewer sessions).
	Viewers []ViewerResult
	// Events is the merged NetLogger stream (empty unless Instrument).
	Events []netlogger.Event
	// Elapsed is the end-to-end wall-clock time of the run.
	Elapsed time.Duration
	// FinalImage is the viewer's last composited view (nil if the scene
	// stayed empty).
	FinalImage *render.Image
}

// TrafficRatio returns source-side bytes over viewer-side bytes, the pipeline
// reduction factor of experiment E10.
func (r *SessionResult) TrafficRatio() float64 {
	if r.Backend.BytesOut == 0 {
		return 0
	}
	return float64(r.Backend.BytesIn) / float64(r.Backend.BytesOut)
}

// RunSession executes a complete Visapult pipeline and blocks until every
// timestep has been loaded, rendered, transmitted and assembled in the
// viewer, or until ctx is cancelled — cancellation aborts the back end at the
// next phase boundary, tears the transport down, and returns ctx's error.
func RunSession(ctx context.Context, cfg SessionConfig) (*SessionResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Source == nil {
		return nil, errors.New("core: SessionConfig.Source is required")
	}
	if cfg.PEs <= 0 {
		return nil, fmt.Errorf("core: PEs must be positive, got %d", cfg.PEs)
	}
	if cfg.StripeLanes <= 0 {
		cfg.StripeLanes = 2
	}
	if cfg.Viewers >= 1 {
		return runFanoutSession(ctx, cfg)
	}

	var beLogger, vLogger *netlogger.Logger
	if cfg.Instrument {
		beLogger = netlogger.New("backend-host", "backend")
		vLogger = netlogger.New("viewer-host", "viewer")
	}

	// The back end is created after the viewer so the axis-hint hook can
	// reference it; captured through this pointer.
	var be *backend.BackEnd

	vcfg := viewer.Config{
		PEs:       cfg.PEs,
		Timesteps: cfg.Timesteps,
		Logger:    vLogger,
	}
	if cfg.FollowView && cfg.Transport == TransportLocal {
		vcfg.AxisHint = func(frame int, axis volume.Axis) {
			if be != nil {
				be.SetAxis(axis)
			}
		}
	}
	vw, err := viewer.New(vcfg)
	if err != nil {
		return nil, err
	}
	vw.SetViewAngle(cfg.ViewAngle)

	tr, err := buildTransport(cfg, vw)
	if err != nil {
		return nil, err
	}
	be, err = backend.New(cfg.BackendConfig(tr.sinks, beLogger))
	if err != nil {
		_ = tr.finish(drainGrace) // the construction error is the one to report
		return nil, err
	}
	// Over sockets the viewer's hints come back as wire frames.
	var applyHint func(volume.Axis)
	if cfg.FollowView {
		applyHint = be.SetAxis
	}
	tr.drainHints(applyHint)

	if cfg.RenderLoop {
		vw.StartRenderLoop(0)
		defer vw.Stop()
	}

	start := time.Now()
	beStats, runErr := be.Run(ctx)
	finishErr := tr.finish(drainGrace)
	elapsed := time.Since(start)
	if runErr != nil {
		return nil, runErr
	}
	if finishErr != nil {
		return nil, finishErr
	}

	res := &SessionResult{
		Backend: beStats,
		Viewer:  vw.Stats(),
		Elapsed: elapsed,
	}
	if img, err := vw.CompositeView(); err == nil {
		res.FinalImage = img
	}
	if cfg.Instrument {
		collector := netlogger.NewCollector()
		collector.AddLogger(beLogger)
		collector.AddLogger(vLogger)
		res.Events = collector.Events()
	}
	return res, nil
}

// BackendConfig is the back-end configuration of a session whose frames go
// to sinks, instrumented through logger (nil disables instrumentation).
func (cfg SessionConfig) BackendConfig(sinks []backend.FrameSink, logger *netlogger.Logger) backend.Config {
	return backend.Config{
		PEs:           cfg.PEs,
		Timesteps:     cfg.Timesteps,
		Mode:          cfg.Mode,
		Axis:          cfg.Axis,
		Source:        cfg.Source,
		TF:            cfg.TF,
		Sinks:         sinks,
		Logger:        logger,
		OnFrame:       cfg.OnFrame,
		OnSlab:        cfg.OnSlab,
		Cache:         cfg.Cache,
		CacheDataset:  cfg.CacheDataset,
		CacheTF:       cfg.CacheTF,
		RenderWorkers: cfg.RenderWorkers,
	}
}

// drainGrace bounds how long a finishing session waits for a viewer to
// close its streams, and for the fan-out's send queues to flush. A viewer
// stalled past it is torn down by closing its connections.
const drainGrace = 10 * time.Second

// transport is one viewer's end of a session: the per-PE sinks the back end
// writes to and, over sockets, the link carrying them plus the viewer's
// service of the other end.
type transport struct {
	sinks    []backend.FrameSink
	link     *wire.Link    // nil for TransportLocal
	served   chan struct{} // closed once the viewer's ServeConns returns
	serveErr error
}

// drainHints starts reading the viewer's return channel, passing best-axis
// hints to apply (nil ignores them). A no-op without sockets.
func (t *transport) drainHints(apply func(volume.Axis)) {
	if t.link != nil {
		t.link.DrainHints(apply)
	}
}

// finish ends every stream and returns once the viewer has served them all:
// the viewer's serve error if it had one, else the link's teardown error.
func (t *transport) finish(grace time.Duration) error {
	if t.link == nil {
		return nil
	}
	err := t.link.Finish(grace)
	<-t.served
	if t.serveErr != nil {
		return t.serveErr
	}
	return err
}

// buildTransport wires the back end's sinks to the viewer according to the
// configured transport. Over sockets it dials every PE's connection, then
// accepts them in order on the viewer side and serves them.
func buildTransport(cfg SessionConfig, vw *viewer.Viewer) (*transport, error) {
	switch cfg.Transport {
	case TransportLocal:
		return &transport{sinks: []backend.FrameSink{viewer.NewLocalSink(vw)}}, nil
	case TransportTCP, TransportStriped:
	default:
		return nil, fmt.Errorf("core: unknown transport %d", cfg.Transport)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: listen: %w", err)
	}
	addr := l.Addr().String()
	dial := func() (io.ReadWriteCloser, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil || cfg.ViewerShaper == nil {
			return c, err
		}
		return netsim.NewShapedConn(c, cfg.ViewerShaper, 0), nil
	}
	accept := func() (io.ReadWriteCloser, error) { return l.Accept() }
	closeListener := l.Close
	if cfg.Transport == TransportStriped {
		sl := wire.NewStripeListener(l, 0)
		dial = func() (io.ReadWriteCloser, error) { return wire.DialStriped(addr, cfg.StripeLanes, 0) }
		accept = func() (io.ReadWriteCloser, error) { return sl.Accept() }
		closeListener = sl.Close
	}
	defer closeListener()

	// Every dial completes in the listen backlog, so the accepts that follow
	// find each connection waiting; on failure, everything opened so far is
	// closed (striped connections own lane goroutines only Close releases).
	var conns, viewerConns []*wire.Conn
	fail := func(err error) (*transport, error) {
		for _, c := range append(conns, viewerConns...) {
			c.Close()
		}
		return nil, err
	}
	for i := 0; i < cfg.PEs; i++ {
		rw, err := dial()
		if err != nil {
			return fail(fmt.Errorf("core: dial: %w", err))
		}
		conns = append(conns, wire.NewConn(rw))
	}
	for i := 0; i < cfg.PEs; i++ {
		rw, err := accept()
		if err != nil {
			return fail(fmt.Errorf("core: accept: %w", err))
		}
		viewerConns = append(viewerConns, wire.NewConn(rw))
	}

	t := &transport{
		sinks:  backend.ConnSinks(conns),
		link:   wire.NewLink(conns...),
		served: make(chan struct{}),
	}
	go func() {
		defer close(t.served)
		t.serveErr = vw.ServeConns(viewerConns...)
	}()
	return t, nil
}
