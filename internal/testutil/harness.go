// Package testutil provides a reusable in-process end-to-end harness for the
// Visapult pipeline: it wires a data source through a real back end and its
// fan-out stage to N viewers over real TCP connections on loopback, with
// per-viewer stall injection. Fan-out, transport and viewer tests across the
// repository build on it instead of hand-rolling listener/dial/serve
// plumbing.
package testutil

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"visapult/internal/backend"
	"visapult/internal/viewer"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// HarnessConfig sizes one harness pipeline. The zero value selects 2 PEs, 3
// timesteps of a tiny in-memory volume, serial mode, and the default
// per-viewer queue bound.
type HarnessConfig struct {
	PEs       int
	Timesteps int
	Mode      backend.Mode
	// Queue bounds each viewer's fan-out send queue in (PE, frame) pairs.
	Queue int
	// Dims are the source volume dimensions; zero selects 12x8x8.
	NX, NY, NZ int
	// FrameDelay, when positive, slows each region load down so tests can
	// act (attach, stall, detach) while the run is in flight.
	FrameDelay time.Duration
	// OnFrame, when non-nil, is forwarded to the back end's per-frame hook.
	OnFrame func(backend.FrameStats)
}

// Harness is one configured pipeline: a back end publishing through a
// fan-out, plus any number of TCP-attached viewers.
type Harness struct {
	tb  testing.TB
	cfg HarnessConfig
	fan *backend.Fanout
	src backend.DataSource

	mu      sync.Mutex
	viewers []*HarnessViewer
}

// NewHarness builds a harness. Viewers attach before or during Run; the
// pipeline executes when Run is called.
func NewHarness(tb testing.TB, cfg HarnessConfig) *Harness {
	tb.Helper()
	if cfg.PEs <= 0 {
		cfg.PEs = 2
	}
	if cfg.Timesteps <= 0 {
		cfg.Timesteps = 3
	}
	if cfg.NX <= 0 || cfg.NY <= 0 || cfg.NZ <= 0 {
		cfg.NX, cfg.NY, cfg.NZ = 12, 8, 8
	}
	vol := volume.MustNew(cfg.NX, cfg.NY, cfg.NZ)
	for z := 0; z < cfg.NZ; z++ {
		for y := 0; y < cfg.NY; y++ {
			for x := 0; x < cfg.NX; x++ {
				vol.Set(x, y, z, float32((x+y+z)%13)/13)
			}
		}
	}
	steps := make([]*volume.Volume, cfg.Timesteps)
	for i := range steps {
		steps[i] = vol
	}
	mem, err := backend.NewMemorySource(steps...)
	if err != nil {
		tb.Fatalf("testutil: building source: %v", err)
	}
	var src backend.DataSource = mem
	if cfg.FrameDelay > 0 {
		src = &delaySource{DataSource: mem, delay: cfg.FrameDelay}
	}
	fan, err := backend.NewFanout(cfg.PEs, cfg.Queue)
	if err != nil {
		tb.Fatalf("testutil: building fan-out: %v", err)
	}
	return &Harness{tb: tb, cfg: cfg, fan: fan, src: src}
}

// delaySource slows each region load down by a fixed delay (interruptible by
// ctx, like a real network source).
type delaySource struct {
	backend.DataSource
	delay time.Duration
}

func (d *delaySource) LoadRegion(ctx context.Context, t int, r volume.Region) (*volume.Volume, int64, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	return d.DataSource.LoadRegion(ctx, t, r)
}

// Fanout exposes the harness's fan-out stage (delivery snapshots, manual
// attach of custom sinks).
func (h *Harness) Fanout() *backend.Fanout { return h.fan }

// Deliveries returns the fan-out's per-viewer delivery snapshot keyed by
// viewer ID.
func (h *Harness) Deliveries() map[string]backend.ViewerDelivery {
	out := make(map[string]backend.ViewerDelivery)
	for _, d := range h.fan.Viewers() {
		out[d.ID] = d
	}
	return out
}

// AttachViewer stands a new viewer up — its own TCP listener on loopback,
// one accepted connection per PE, a real viewer.Viewer servicing them — and
// attaches it to the fan-out. Safe before or during Run; a viewer attached
// mid-run starts receiving at the next frame boundary.
func (h *Harness) AttachViewer(id string) *HarnessViewer {
	h.tb.Helper()
	hv, err := h.attachViewer(id)
	if err != nil {
		h.tb.Fatalf("testutil: attaching viewer %q: %v", id, err)
	}
	return hv
}

func (h *Harness) attachViewer(id string) (*HarnessViewer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	vw, err := viewer.New(viewer.Config{
		PEs: h.cfg.PEs,
		// A non-nil hook keeps ServeConn from writing axis hints back over
		// connections nobody drains.
		AxisHint: func(int, volume.Axis) {},
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	hv := &HarnessViewer{
		ID:        id,
		harness:   h,
		vw:        vw,
		listener:  l,
		gate:      newGate(),
		serveDone: make(chan struct{}),
	}

	// Back-end side: dial one gated connection per PE.
	sinks := make([]backend.FrameSink, h.cfg.PEs)
	for pe := 0; pe < h.cfg.PEs; pe++ {
		c, err := net.DialTimeout("tcp", l.Addr().String(), 5*time.Second)
		if err != nil {
			hv.close()
			return nil, err
		}
		conn := wire.NewConn(&gatedConn{Conn: c, gate: hv.gate})
		hv.conns = append(hv.conns, conn)
		sinks[pe] = conn
	}
	// Viewer side: accept them here, not in a goroutine — the dials above
	// already completed in the listen backlog, and a connection left
	// unaccepted when a fast run's teardown closes the listener would be
	// reset with its frames unread.
	conns := make([]*wire.Conn, 0, h.cfg.PEs)
	for i := 0; i < h.cfg.PEs; i++ {
		c, err := l.Accept()
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			hv.close()
			return nil, err
		}
		conns = append(conns, wire.NewConn(c))
	}
	go func() {
		defer close(hv.serveDone)
		hv.setServeErr(vw.ServeConns(conns...))
	}()

	if err := h.fan.Attach(id, sinks); err != nil {
		hv.close()
		return nil, err
	}
	h.mu.Lock()
	h.viewers = append(h.viewers, hv)
	h.mu.Unlock()
	return hv, nil
}

// AttachStalledViewer attaches a viewer whose connections are stalled from
// the start: the fan-out's sender for it blocks on the first write until
// Unstall (or teardown). Its queue then fills and frames drop — the dead
// display of the acceptance scenario.
func (h *Harness) AttachStalledViewer(id string) *HarnessViewer {
	h.tb.Helper()
	hv := h.AttachViewer(id)
	hv.Stall()
	return hv
}

// Run executes the back end against the fan-out and tears the viewers down
// when it finishes: queues are flushed, done markers sent, service goroutines
// joined, sockets closed. It returns the back end's statistics.
func (h *Harness) Run(ctx context.Context) (backend.RunStats, error) {
	h.tb.Helper()
	be, err := backend.New(backend.Config{
		PEs:       h.cfg.PEs,
		Timesteps: h.cfg.Timesteps,
		Mode:      h.cfg.Mode,
		Source:    h.src,
		Sinks:     h.fan.Sinks(),
		OnFrame:   h.cfg.OnFrame,
	})
	if err != nil {
		return backend.RunStats{}, err
	}
	stats, runErr := be.Run(ctx)
	// Short grace: healthy queues drain in milliseconds; only a sender
	// wedged on a stalled viewer exhausts it, and the teardown below
	// unblocks that one by failing its connections.
	h.fan.Close(2 * time.Second)

	h.mu.Lock()
	viewers := append([]*HarnessViewer(nil), h.viewers...)
	h.mu.Unlock()
	var wg sync.WaitGroup
	for _, hv := range viewers {
		wg.Add(1)
		go func(hv *HarnessViewer) {
			defer wg.Done()
			hv.teardown()
		}(hv)
	}
	wg.Wait()
	return stats, runErr
}

// HarnessViewer is one TCP-attached viewer of a harness.
type HarnessViewer struct {
	ID      string
	harness *Harness
	vw      *viewer.Viewer

	listener  net.Listener
	conns     []*wire.Conn
	gate      *gate
	serveDone chan struct{}

	mu       sync.Mutex
	serveErr error
	torn     bool
}

// Viewer exposes the underlying viewer (scene graph, render loop).
func (hv *HarnessViewer) Viewer() *viewer.Viewer { return hv.vw }

// Stats returns the viewer's receive-side counters.
func (hv *HarnessViewer) Stats() viewer.Stats { return hv.vw.Stats() }

// Frames returns the viewer's per-frame assembly records in frame order.
func (hv *HarnessViewer) Frames() []viewer.FrameRecord { return hv.vw.Frames() }

// Delivery returns the fan-out's delivery record for this viewer.
func (hv *HarnessViewer) Delivery() backend.ViewerDelivery {
	return hv.harness.Deliveries()[hv.ID]
}

// ServeErr returns the viewer's terminal serve error (nil for clean
// streams); valid after Run returns.
func (hv *HarnessViewer) ServeErr() error {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	return hv.serveErr
}

func (hv *HarnessViewer) setServeErr(err error) {
	hv.mu.Lock()
	if hv.serveErr == nil {
		hv.serveErr = err
	}
	hv.mu.Unlock()
}

// Stall blocks all of the viewer's connections at the next write, emulating
// a wedged display or a dead network path.
func (hv *HarnessViewer) Stall() { hv.gate.stall() }

// Unstall releases the viewer's connections again.
func (hv *HarnessViewer) Unstall() { hv.gate.unstall() }

// WaitFramesCompleted polls until the viewer has assembled at least n
// complete frames.
func (hv *HarnessViewer) WaitFramesCompleted(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if hv.vw.Stats().FramesCompleted >= n {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("testutil: viewer %s completed %d frames, want >= %d within %v",
		hv.ID, hv.vw.Stats().FramesCompleted, n, timeout)
}

// Detach removes the viewer from the fan-out mid-run and tears its
// transport down; its delivery record remains in the fan-out's snapshot.
func (hv *HarnessViewer) Detach() error {
	if err := hv.harness.fan.Detach(hv.ID); err != nil {
		return err
	}
	hv.teardown()
	return nil
}

// teardown ends the viewer's streams: done markers (concurrent, bounded —
// a stalled connection cannot take them), gates released with an error so
// blocked writers unwind, sockets closed, service goroutines joined.
func (hv *HarnessViewer) teardown() {
	hv.mu.Lock()
	if hv.torn {
		hv.mu.Unlock()
		return
	}
	hv.torn = true
	hv.mu.Unlock()

	// Done markers first (concurrent, bounded — a wedged connection's write
	// lock cannot take one), then fail the gates and close the sockets so
	// anything still blocked unwinds, then join the service goroutines. A
	// healthy viewer reads its buffered stream plus the Done marker before
	// the FIN arrives, so its streams still end cleanly.
	var doneWG sync.WaitGroup
	for _, c := range hv.conns {
		doneWG.Add(1)
		go func(c *wire.Conn) { defer doneWG.Done(); c.SendDone() }(c)
	}
	sent := make(chan struct{})
	go func() { doneWG.Wait(); close(sent) }()
	select {
	case <-sent:
	case <-time.After(2 * time.Second):
	}
	hv.close()
	select {
	case <-hv.serveDone:
	case <-time.After(5 * time.Second):
	}
}

// close releases everything unconditionally (also the attach failure path).
func (hv *HarnessViewer) close() {
	hv.gate.kill()
	for _, c := range hv.conns {
		c.Close()
	}
	hv.listener.Close()
}

// gate pauses writes on demand. Open by default; stall swaps in a blocking
// state, unstall releases it, kill fails all current and future waits.
type gate struct {
	mu   sync.Mutex
	open chan struct{} // closed when writes may proceed
	dead chan struct{} // closed on teardown
}

func newGate() *gate {
	g := &gate{open: make(chan struct{}), dead: make(chan struct{})}
	close(g.open)
	return g
}

func (g *gate) stall() {
	g.mu.Lock()
	select {
	case <-g.open:
		g.open = make(chan struct{})
	default: // already stalled
	}
	g.mu.Unlock()
}

func (g *gate) unstall() {
	g.mu.Lock()
	select {
	case <-g.open:
	default:
		close(g.open)
	}
	g.mu.Unlock()
}

func (g *gate) kill() {
	g.mu.Lock()
	select {
	case <-g.dead:
	default:
		close(g.dead)
	}
	g.mu.Unlock()
}

// wait blocks while the gate is stalled; it fails once the gate is killed.
func (g *gate) wait() error {
	g.mu.Lock()
	open := g.open
	g.mu.Unlock()
	select {
	case <-open:
		return nil
	case <-g.dead:
		return net.ErrClosed
	}
}

// gatedConn is a net.Conn whose writes block while its gate is stalled.
type gatedConn struct {
	net.Conn
	gate *gate
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if err := c.gate.wait(); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}
