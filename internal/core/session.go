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
//     wall-clock timestamps. One function wires every run to its viewer ends:
//     an end is a viewer served in this process (RunSession) or the dialed
//     link to one served elsewhere (RunBackend), and a run has no end (its
//     frames are discarded), one direct end the PEs write to with
//     back-pressure, or any number of ends behind the back end's fan-out.
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
// one of those two paths; Experiments lists them (E1-E12), and the
// visharness command runs them.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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
// Its viewers are served in process: one direct viewer, or cfg.Viewers of
// them behind the fan-out.
func RunSession(ctx context.Context, cfg SessionConfig) (*SessionResult, error) {
	if cfg.StripeLanes <= 0 {
		cfg.StripeLanes = 2
	}
	opens := make([]openEnd, max(cfg.Viewers, 1))
	for i := range opens {
		opens[i] = cfg.serveViewer
	}
	return drive(ctx, cfg, "backend-host", opens)
}

// RunBackend runs cfg's back end against viewers served elsewhere: links
// holds each viewer's dialed per-PE connections, in order. With no link the
// frames go to a discarding sink (a viewer-less run). With cfg.Viewers >= 1
// every link sits behind the fan-out; otherwise the one link takes the PEs'
// writes directly. host names the back end in NetLogger events. A remote
// viewer reports its own side, so teardown errors never fail the run.
func RunBackend(ctx context.Context, cfg SessionConfig, host string, links ...*wire.Link) (*SessionResult, error) {
	opens := make([]openEnd, len(links))
	for i, l := range links {
		opens[i] = func(string, func(volume.Axis)) (*end, error) {
			return &end{sinks: backend.ConnSinks(l.Conns()), link: l}, nil
		}
	}
	return drive(ctx, cfg, host, opens)
}

// drive runs every session. It attaches the run's viewer ends (one per
// opens entry: none, one direct end, or all of them behind the fan-out when
// cfg.Viewers >= 1), builds the back end over their sinks, runs it under
// ctx, finishes every end and assembles the result. host names the back end
// in NetLogger events. A direct end's stream error fails the run; a fan-out
// end's is that viewer's own result.
func drive(ctx context.Context, cfg SessionConfig, host string, opens []openEnd) (*SessionResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Source == nil {
		return nil, errors.New("core: SessionConfig.Source is required")
	}
	if cfg.PEs <= 0 {
		return nil, fmt.Errorf("core: PEs must be positive, got %d", cfg.PEs)
	}
	vs := &ends{cfg: cfg, instances: make(map[string]*end)}
	if cfg.Viewers >= 1 {
		fan, err := backend.NewFanout(cfg.PEs, cfg.ViewerQueue)
		if err != nil {
			return nil, err
		}
		vs.fan = fan
	}
	for i, open := range opens {
		id := ""
		if vs.fan != nil {
			id = fmt.Sprintf("viewer-%d", i)
		}
		if err := vs.attach(id, open); err != nil {
			vs.finish()
			return nil, err
		}
	}

	var logger *netlogger.Logger
	if cfg.Instrument {
		logger = netlogger.New(host, "backend")
	}
	be, err := backend.New(cfg.backendConfig(vs.sinks(), logger))
	if err != nil {
		vs.finish() // the construction error is the one to report
		return nil, err
	}
	vs.be.Store(be)
	// A cancelled run closes every connection: that is what unblocks a PE or
	// fan-out sender stuck mid-write on a stalled viewer (the barrier abort
	// alone cannot interrupt a full TCP send buffer).
	defer context.AfterFunc(ctx, vs.abort)()
	if vs.fan != nil && cfg.OnFanout != nil {
		cfg.OnFanout(&FanoutControl{vs})
	}

	start := time.Now()
	stats, runErr := be.Run(ctx)
	vs.finish()
	elapsed := time.Since(start)
	if runErr != nil {
		return nil, runErr
	}
	return vs.result(stats, elapsed, logger)
}

// backendConfig is the back-end configuration of a session whose frames go
// to sinks, instrumented through logger (nil disables instrumentation).
func (cfg SessionConfig) backendConfig(sinks []backend.FrameSink, logger *netlogger.Logger) backend.Config {
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

// drainGrace bounds how long a finishing session waits for the fan-out's
// send queues to flush, and for a viewer to close its streams. A viewer
// stalled past it is torn down by closing its connections.
const drainGrace = 10 * time.Second

// end is one viewer's end of a run: the per-PE sinks the back end writes to,
// the link carrying them over sockets (nil in process) and, for a viewer
// this process serves, that viewer and the outcome of its service.
type end struct {
	id       string
	sinks    []backend.FrameSink
	link     *wire.Link        // nil for TransportLocal
	vw       *viewer.Viewer    // nil for a viewer served elsewhere
	logger   *netlogger.Logger // vw's; nil unless instrumented
	served   chan struct{}     // closed once vw's ServeConns returns; nil unless vw serves link
	serveErr error

	finished sync.Once
	err      error // the teardown's outcome, set once by finished
}

// openEnd opens the end named id; steer, when non-nil, receives the
// viewer's best-axis hints.
type openEnd func(id string, steer func(volume.Axis)) (*end, error)

// finish ends the viewer's streams and stops its render loop; grace bounds
// a wedged viewer (0 waits for it). The error is the in-process viewer's
// serve error if it had one, else the link's teardown error; a viewer served
// elsewhere reports its own side, so its end's is dropped. Idempotent: later
// calls wait for the first and return its outcome.
func (e *end) finish(grace time.Duration) error {
	e.finished.Do(func() { e.err = e.teardown(grace) })
	return e.err
}

// teardown does finish's work; finish runs it at most once.
func (e *end) teardown(grace time.Duration) error {
	if e.vw != nil {
		defer e.vw.Stop()
	}
	if e.link == nil {
		return nil
	}
	err := e.link.Finish(grace)
	if e.served == nil {
		return nil
	}
	<-e.served
	if e.serveErr != nil {
		return e.serveErr
	}
	return err
}

// serveViewer builds the in-process viewer of end id (the direct viewer has
// no id) and serves it over cfg's transport.
func (cfg SessionConfig) serveViewer(id string, steer func(volume.Axis)) (*end, error) {
	host := "viewer-host"
	if id != "" {
		host += "-" + id
	}
	var logger *netlogger.Logger
	if cfg.Instrument {
		logger = netlogger.New(host, "viewer")
	}
	vcfg := viewer.Config{PEs: cfg.PEs, Timesteps: cfg.Timesteps, Logger: logger}
	// Over sockets the viewer sends its hints on the wire and the link
	// drains them; in process this hook is their only way back.
	if cfg.Transport == TransportLocal && steer != nil {
		vcfg.AxisHint = func(_ int, axis volume.Axis) { steer(axis) }
	}
	vw, err := viewer.New(vcfg)
	if err != nil {
		return nil, err
	}
	vw.SetViewAngle(cfg.ViewAngle)
	e, err := buildTransport(cfg, vw)
	if err != nil {
		return nil, err
	}
	e.logger = logger
	if cfg.RenderLoop {
		vw.StartRenderLoop(0)
	}
	return e, nil
}

// buildTransport wires the back end's sinks to the viewer according to the
// configured transport. Over sockets it dials every PE's connection, then
// accepts them in order on the viewer side and serves them.
func buildTransport(cfg SessionConfig, vw *viewer.Viewer) (*end, error) {
	switch cfg.Transport {
	case TransportLocal:
		return &end{sinks: []backend.FrameSink{viewer.NewLocalSink(vw)}, vw: vw}, nil
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
	fail := func(err error) (*end, error) {
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

	e := &end{
		sinks:  backend.ConnSinks(conns),
		link:   wire.NewLink(conns...),
		vw:     vw,
		served: make(chan struct{}),
	}
	go func() {
		defer close(e.served)
		e.serveErr = vw.ServeConns(viewerConns...)
	}()
	return e, nil
}
