package visapult

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"visapult/internal/core"
	"visapult/internal/netlogger"
	"visapult/internal/viewer"
	"visapult/internal/wire"
)

// The split-process deployment of the paper's field tests: the back end runs
// near the data (RunBackend) and streams slab textures over one TCP
// connection per PE to a viewer on the desktop (ServeViewer). The in-process
// equivalent is Pipeline with TransportTCP.

// BackendConfig describes a standalone back-end process.
type BackendConfig struct {
	// ViewerAddr is the host:port of the viewer accepting PE connections.
	ViewerAddr string
	// ViewerAddrs, when non-empty, multicasts the run to several viewer
	// processes at once through the back end's fan-out stage (the paper's
	// ImmersaDesk + tiled display exhibit): every frame is rendered once and
	// its per-slab textures are shipped to each address over that viewer's
	// own connections and bounded send queue, so one slow or dead viewer
	// loses frames instead of stalling the render loop or the others.
	// ViewerAddr is ignored when ViewerAddrs is set.
	ViewerAddrs []string
	// ViewerQueue bounds each fan-out viewer's send queue in (PE, frame)
	// pairs; 0 selects the default (32). Only used with ViewerAddrs.
	ViewerQueue int
	// PEs is the number of processing elements (default 4).
	PEs int
	// Timesteps bounds the run; 0 means every timestep of the source.
	Timesteps int
	// Mode selects serial or overlapped loading.
	Mode Mode
	// Source supplies the raw data. Required.
	Source Source
	// FollowView applies the viewer's best-axis hints to the slab
	// decomposition (section 3.3). When false the hints are still drained
	// off the connections — required for a clean teardown — but ignored.
	FollowView bool
	// RenderWorkers sizes the back end's shared render pool; <= 0 selects
	// GOMAXPROCS. See backend.Config.RenderWorkers.
	RenderWorkers int
	// Instrument enables NetLogger instrumentation; the events are returned
	// in BackendReport.Events.
	Instrument bool
}

// BackendReport is what a standalone back-end run did.
type BackendReport struct {
	Stats  RunStats
	Events []Event
	// Viewers is the per-viewer delivery record of a multicast run (one
	// entry per ViewerAddrs address, in order); empty for single-viewer
	// runs.
	Viewers []ViewerDelivery
}

// RunBackend dials one connection per PE to each viewer, executes the back
// end, and announces end-of-stream. Cancelling ctx closes every connection
// and aborts the run at the next phase boundary.
func RunBackend(ctx context.Context, cfg BackendConfig) (*BackendReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Source == nil {
		return nil, errors.New("visapult: BackendConfig.Source is required")
	}
	if cfg.PEs <= 0 {
		cfg.PEs = 4
	}
	addrs := cfg.ViewerAddrs
	if len(addrs) == 0 {
		if cfg.ViewerAddr == "" {
			return nil, errors.New("visapult: BackendConfig.ViewerAddr is required")
		}
		addrs = []string{cfg.ViewerAddr}
	}

	links := make([]*wire.Link, 0, len(addrs))
	var dialer net.Dialer
	for _, addr := range addrs {
		conns := make([]*wire.Conn, 0, cfg.PEs)
		for pe := 0; pe < cfg.PEs; pe++ {
			c, err := dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				for _, l := range append(links, wire.NewLink(conns...)) {
					l.Close()
				}
				return nil, fmt.Errorf("visapult: connecting PE %d to viewer %s: %w", pe, addr, err)
			}
			//vislint:ignore boundedio core.RunBackend closes every link once ctx is cancelled, and a PE stream legitimately waits as long as the back end computes between frames
			conns = append(conns, wire.NewConn(c))
		}
		links = append(links, wire.NewLink(conns...))
	}

	sc := core.SessionConfig{
		PEs: cfg.PEs, Timesteps: cfg.Timesteps, Mode: cfg.Mode, Source: cfg.Source,
		FollowView: cfg.FollowView, RenderWorkers: cfg.RenderWorkers, Instrument: cfg.Instrument,
	}
	if len(cfg.ViewerAddrs) > 0 {
		sc.Viewers, sc.ViewerQueue = len(links), cfg.ViewerQueue
	}
	sr, err := core.RunBackend(ctx, sc, hostname("backend-host"), links...)
	if err != nil {
		return nil, err
	}
	rep := &BackendReport{Stats: sr.Backend, Events: sr.Events}
	// The fan-out names its viewers viewer-<i>; the report adds each address.
	for i, vr := range sr.Viewers {
		d := vr.Delivery
		d.ID += ":" + addrs[i]
		rep.Viewers = append(rep.Viewers, d)
	}
	return rep, nil
}

// ViewerConfig describes a standalone viewer process.
type ViewerConfig struct {
	// ListenAddr is the host:port to accept back-end connections on.
	ListenAddr string
	// PEs is the number of back-end connections to expect (default 4).
	PEs int
	// Width and Height size the rendered view (default 512x512).
	Width, Height int
	// ViewAngle is the camera rotation about Y in radians.
	ViewAngle float64
	// RenderLoop starts the decoupled render goroutine while serving.
	RenderLoop bool
	// Instrument enables NetLogger instrumentation.
	Instrument bool
	// OnListen, when non-nil, is called with the bound address before the
	// viewer starts accepting (useful with a ":0" listen address).
	OnListen func(addr net.Addr)
}

// ViewerReport is what a standalone viewer served.
type ViewerReport struct {
	Stats      ViewerStats
	Events     []Event
	FinalImage *Image
}

// ServeViewer accepts one TCP connection per expected PE, services them
// concurrently until every stream ends, and returns the assembled view.
// Cancelling ctx closes the listener and unwinds the service goroutines.
func ServeViewer(ctx context.Context, cfg ViewerConfig) (*ViewerReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.PEs <= 0 {
		cfg.PEs = 4
	}
	if cfg.ListenAddr == "" {
		return nil, errors.New("visapult: ViewerConfig.ListenAddr is required")
	}

	var logger *netlogger.Logger
	if cfg.Instrument {
		logger = netlogger.New(hostname("viewer-host"), "viewer")
	}
	vw, err := viewer.New(viewer.Config{
		PEs: cfg.PEs, Logger: logger,
		ViewWidth: cfg.Width, ViewHeight: cfg.Height,
	})
	if err != nil {
		return nil, err
	}
	vw.SetViewAngle(cfg.ViewAngle)
	if cfg.RenderLoop {
		vw.StartRenderLoop(0)
		defer vw.Stop()
	}

	var lc net.ListenConfig
	inner, err := lc.Listen(ctx, "tcp", cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	l := &trackingListener{Listener: inner}
	defer l.CloseAll()
	if cfg.OnListen != nil {
		cfg.OnListen(l.Addr())
	}

	// A cancelled context closes the listener (failing a pending Accept) AND
	// every accepted PE connection, so service goroutines blocked reading a
	// stalled back end unwind too.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			l.CloseAll()
		case <-watchDone:
		}
	}()

	serveErr := vw.Serve(l)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	if serveErr != nil {
		return nil, serveErr
	}

	rep := &ViewerReport{Stats: vw.Stats()}
	if img, err := vw.CompositeView(); err == nil {
		rep.FinalImage = img
	}
	if logger != nil {
		col := netlogger.NewCollector()
		col.AddLogger(logger)
		rep.Events = col.Events()
	}
	return rep, nil
}

// trackingListener remembers the connections it accepts so a cancellation
// can close them along with the listener itself.
type trackingListener struct {
	net.Listener
	mu     sync.Mutex
	closed bool
	conns  []net.Conn
}

// Accept implements net.Listener, recording the accepted connection. A
// connection that lands in the window between CloseAll's snapshot and the
// append is closed here instead of escaping the teardown.
func (t *trackingListener) Accept() (net.Conn, error) {
	c, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, net.ErrClosed
	}
	t.conns = append(t.conns, c)
	t.mu.Unlock()
	return c, nil
}

// CloseAll closes the listener and every connection accepted through it.
func (t *trackingListener) CloseAll() {
	t.Listener.Close()
	t.mu.Lock()
	t.closed = true
	conns := t.conns
	t.conns = nil
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// hostname returns the OS hostname, falling back to def.
func hostname(def string) string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return def
	}
	return h
}

// WriteULM serializes events as a ULM log to a file, the format netlogd and
// nlv consume.
func WriteULM(path string, events []Event) error {
	if len(events) == 0 {
		return errors.New("visapult: no events to write")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	c := netlogger.NewCollector()
	c.Add(events...)
	if err := c.WriteULM(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePPM serializes an image as a PPM file.
func WritePPM(path string, img *Image) error {
	if img == nil {
		return errors.New("visapult: nil image")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := img.WritePPM(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Deadline is a tiny helper: it returns a context cancelled after d, or the
// parent unchanged when d <= 0.
func Deadline(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}
