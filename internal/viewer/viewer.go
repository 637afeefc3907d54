// Package viewer implements the Visapult viewer: the desktop half of the
// pipeline (sections 3.1, 3.4 and Appendix A of the paper).
//
// The viewer is a multi-threaded application. One goroutine per back-end
// processing element services that PE's network connection, receiving the
// per-frame light payload (metadata) and heavy payload (the rendered slab
// texture plus optional grid geometry and elevation map) and inserting them
// into a thread-safe scene graph. A single render goroutine repeatedly
// composites the scene into a final image, completely decoupled from the
// arrival of new data — the property that makes desktop interactivity
// independent of WAN latency.
//
// Per frame the viewer also computes the best view axis from the current
// camera orientation (section 3.3) and reports it upstream, so the back end
// can switch to an X-, Y- or Z-aligned slab decomposition and keep the IBRAVR
// compositing error inside the artifact-free cone.
//
// Every receive phase is instrumented with the NetLogger tags of the paper's
// Table 1 (V_FRAME_START, V_LIGHTPAYLOAD_START, ...).
package viewer

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"visapult/internal/ibr"
	"visapult/internal/netlogger"
	"visapult/internal/render"
	"visapult/internal/scenegraph"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// AxisHintFunc receives the best-axis hints the viewer computes each frame.
// Only an in-process session (no sockets) sets it, wiring it to
// BackEnd.SetAxis; a viewer served over connections sends its hints on them.
type AxisHintFunc func(frame int, axis volume.Axis)

// Config describes one viewer instance.
type Config struct {
	// PEs is the number of back-end processing elements that will feed this
	// viewer; the viewer considers a frame complete when all of them have
	// delivered their texture for it.
	PEs int
	// Timesteps is the number of data frames expected; 0 means unknown (the
	// viewer then runs until its sources close).
	Timesteps int
	// Logger receives NetLogger events; nil disables instrumentation.
	Logger *netlogger.Logger
	// AxisHint, when non-nil, is called with the best-axis recommendation
	// after every completed frame.
	AxisHint AxisHintFunc
	// ViewWidth and ViewHeight are the dimensions of images produced by the
	// render loop; zero selects 512x512.
	ViewWidth, ViewHeight int
}

// FrameRecord describes the assembly of one data frame on the viewer side.
type FrameRecord struct {
	Frame int
	// PEsArrived counts how many PEs have delivered this frame so far.
	PEsArrived int
	// Bytes is the total payload volume received for the frame.
	Bytes int64
	// FirstArrival and Completed bracket the frame's assembly; Completed is
	// zero until every PE has delivered.
	FirstArrival time.Time
	Completed    time.Time
}

// Stats is a snapshot of the viewer's counters.
type Stats struct {
	// PayloadsReceived counts (light, heavy) pairs received.
	PayloadsReceived int
	// FramesCompleted counts frames for which every PE delivered.
	FramesCompleted int
	// BytesReceived is the total payload volume received.
	BytesReceived int64
	// RenderedFrames counts images produced by the render loop.
	RenderedFrames int
	// SceneVersion is the scene graph's current update counter.
	SceneVersion uint64
}

// Viewer assembles back-end output into a scene graph and renders it.
type Viewer struct {
	cfg   Config
	scene *scenegraph.Scene

	mu        sync.Mutex
	frames    map[int]*FrameRecord
	completed int
	payloads  int
	bytes     int64
	viewAngle float64 // rotation about Y, radians
	lastAxis  volume.Axis

	rendered  int64
	renderMu  sync.Mutex
	lastImage *render.Image

	stopOnce sync.Once
	stopCh   chan struct{}
	renderWG sync.WaitGroup
}

// New creates a viewer.
func New(cfg Config) (*Viewer, error) {
	if cfg.PEs <= 0 {
		return nil, fmt.Errorf("viewer: PEs must be positive, got %d", cfg.PEs)
	}
	if cfg.ViewWidth <= 0 {
		cfg.ViewWidth = 512
	}
	if cfg.ViewHeight <= 0 {
		cfg.ViewHeight = 512
	}
	return &Viewer{
		cfg:      cfg,
		scene:    scenegraph.NewScene(),
		frames:   make(map[int]*FrameRecord),
		stopCh:   make(chan struct{}),
		lastAxis: volume.AxisZ,
	}, nil
}

// Scene exposes the viewer's scene graph (for rendering or inspection).
func (v *Viewer) Scene() *scenegraph.Scene { return v.scene }

// log emits a NetLogger event if instrumentation is enabled.
func (v *Viewer) log(tag string, frame, pe int, bytes int64) {
	if v.cfg.Logger == nil {
		return
	}
	fields := []netlogger.Field{
		netlogger.Int(netlogger.FieldFrame, frame),
		netlogger.Int(netlogger.FieldPE, pe),
	}
	if bytes > 0 {
		fields = append(fields, netlogger.Int64(netlogger.FieldBytes, bytes))
	}
	v.cfg.Logger.Log(tag, fields...)
}

// SetViewAngle sets the camera's rotation about the Y axis (radians). The
// render loop and the best-axis computation use it.
func (v *Viewer) SetViewAngle(angle float64) {
	v.mu.Lock()
	v.viewAngle = angle
	v.mu.Unlock()
}

// ViewAngle returns the current camera rotation about Y.
func (v *Viewer) ViewAngle() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.viewAngle
}

// BestAxis returns the slab axis best aligned with the current view.
func (v *Viewer) BestAxis() volume.Axis {
	axis, _ := ibr.BestAxis(ibr.ViewFromYRotation(v.ViewAngle()))
	return axis
}

// quadName names the scene graph node holding one PE's slab texture.
func quadName(pe int) string { return fmt.Sprintf("slab-%03d", pe) }

// gridName names the scene graph node holding one PE's AMR wireframe.
func gridName(pe int) string { return fmt.Sprintf("grid-%03d", pe) }

// Deliver inserts one PE's frame output into the scene graph. It is the core
// of the I/O service thread: ServeConn and LocalSink both funnel into it.
// Deliver is safe for concurrent use by multiple goroutines (one per PE).
func (v *Viewer) Deliver(lp *wire.LightPayload, hp *wire.HeavyPayload) error {
	if lp == nil || hp == nil {
		return errors.New("viewer: nil payload")
	}
	if lp.Frame != hp.Frame || lp.PE != hp.PE {
		return fmt.Errorf("viewer: light payload (frame %d, PE %d) does not match heavy payload (frame %d, PE %d)",
			lp.Frame, lp.PE, hp.Frame, hp.PE)
	}
	img, err := render.FromRGBA8(hp.TexWidth, hp.TexHeight, hp.Texture)
	if err != nil {
		return fmt.Errorf("viewer: decoding texture from PE %d: %w", hp.PE, err)
	}

	// Depth sorting key: the slab center's coordinate along the current
	// decomposition axis (larger = farther for our orthographic camera).
	var depth float64
	switch lp.Axis {
	case volume.AxisX:
		depth = lp.CenterX
	case volume.AxisY:
		depth = lp.CenterY
	default:
		depth = lp.CenterZ
	}

	v.scene.Update(func(root *scenegraph.Group) {
		name := quadName(lp.PE)
		root.Remove(name)
		q := scenegraph.NewTextureQuad(name, img,
			scenegraph.Vec3{X: lp.CenterX, Y: lp.CenterY, Z: lp.CenterZ},
			depth, lp.Width, lp.Height)
		q.Frame = lp.Frame
		q.Elevation = hp.Elevation
		root.Add(q)
		if len(hp.Grid) > 0 {
			gname := gridName(lp.PE)
			root.Remove(gname)
			root.Add(scenegraph.NewLineSet(gname, hp.Grid, 0.9, 0.9, 0.9, 0.6))
		}
	})

	bytes := lp.WireSize() + hp.WireSize()
	v.mu.Lock()
	v.payloads++
	v.bytes += bytes
	v.lastAxis = lp.Axis
	rec, ok := v.frames[lp.Frame]
	if !ok {
		rec = &FrameRecord{Frame: lp.Frame, FirstArrival: time.Now()}
		v.frames[lp.Frame] = rec
	}
	rec.PEsArrived++
	rec.Bytes += bytes
	frameDone := rec.PEsArrived == v.cfg.PEs
	if frameDone {
		rec.Completed = time.Now()
		v.completed++
	}
	angle := v.viewAngle
	v.mu.Unlock()

	if frameDone && v.cfg.AxisHint != nil {
		axis, _ := ibr.BestAxis(ibr.ViewFromYRotation(angle))
		v.cfg.AxisHint(lp.Frame, axis)
	}
	return nil
}

// ServeConn is one I/O service thread: it reads light/heavy payload pairs
// from a back-end connection until the stream ends (MsgDone or EOF),
// delivering each into the scene graph and emitting the paper's viewer-side
// NetLogger events. Unless an in-process AxisHint hook is set, an axis hint
// is sent back on the same connection after every heavy payload.
func (v *Viewer) ServeConn(conn *wire.Conn) error {
	var pending *wire.LightPayload
	var frameStart bool
	for {
		m, err := conn.ReadMessage()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("viewer: reading from back end: %w", err)
		}
		switch m.Type {
		case wire.MsgDone:
			return nil
		case wire.MsgLight:
			lp, err := wire.DecodeLight(m)
			if err != nil {
				return err
			}
			if !frameStart {
				v.log(netlogger.VFrameStart, lp.Frame, lp.PE, 0)
				frameStart = true
			}
			v.log(netlogger.VLightPayloadStart, lp.Frame, lp.PE, lp.WireSize())
			v.log(netlogger.VLightPayloadEnd, lp.Frame, lp.PE, lp.WireSize())
			pending = lp
		case wire.MsgHeavy:
			hp, err := wire.DecodeHeavy(m)
			if err != nil {
				return err
			}
			if pending == nil {
				return fmt.Errorf("viewer: heavy payload for frame %d PE %d arrived before its metadata", hp.Frame, hp.PE)
			}
			v.log(netlogger.VHeavyPayloadStart, hp.Frame, hp.PE, hp.WireSize())
			if err := v.Deliver(pending, hp); err != nil {
				return err
			}
			v.log(netlogger.VHeavyPayloadEnd, hp.Frame, hp.PE, hp.WireSize())
			v.log(netlogger.VFrameEnd, hp.Frame, hp.PE, 0)
			if v.cfg.AxisHint == nil {
				// Remote sessions without an in-process hook get their axis
				// hints over the wire.
				hint := &wire.AxisHint{Frame: hp.Frame, Axis: v.BestAxis()}
				if err := conn.SendAxisHint(hint); err != nil {
					return fmt.Errorf("viewer: sending axis hint: %w", err)
				}
			}
			pending = nil
			frameStart = false
		default:
			return fmt.Errorf("viewer: unexpected message %v from back end", m.Type)
		}
	}
}

// Serve accepts one TCP connection per expected PE on the listener and
// services them concurrently, returning when all streams have ended. It is
// the network-facing entry point used by cmd/visapult-viewer.
func (v *Viewer) Serve(l net.Listener) error {
	conns := make([]*wire.Conn, v.cfg.PEs)
	for i := 0; i < v.cfg.PEs; i++ {
		c, err := l.Accept()
		if err != nil {
			for _, conn := range conns {
				if conn != nil {
					conn.Close()
				}
			}
			return fmt.Errorf("viewer: accepting PE connection %d: %w", i, err)
		}
		//vislint:ignore boundedio PE streams are long-lived: a viewer legitimately waits as long as the back end computes between frames
		conns[i] = wire.NewConn(c)
	}
	return v.ServeConns(conns...)
}

// ServeConns services a set of already-established logical back-end
// connections concurrently, one I/O goroutine per connection, and returns
// when every stream has ended. It is the dynamic-registration entry point of
// the receiver: a viewer attaching to an in-flight run (the back end's
// fan-out stage) builds its connections first — however they were
// established — and then serves them, picking the stream up at the next
// frame boundary the sender grants it. Each connection is closed when its
// stream ends.
func (v *Viewer) ServeConns(conns ...*wire.Conn) error {
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn *wire.Conn) {
			defer wg.Done()
			errs[i] = v.ServeConn(conn)
			conn.Close()
		}(i, conn)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// StartRenderLoop launches the decoupled render goroutine. It re-composites
// the scene whenever the scene version changes (or the camera angle does) and
// never blocks the I/O service threads; interval is the polling cadence
// (<= 0 selects 16 ms, roughly 60 Hz). Call Stop to end the loop.
func (v *Viewer) StartRenderLoop(interval time.Duration) {
	if interval <= 0 {
		interval = 16 * time.Millisecond
	}
	v.renderWG.Add(1)
	go func() {
		defer v.renderWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var lastVersion uint64
		var lastAngle float64
		for {
			select {
			case <-v.stopCh:
				return
			case <-ticker.C:
				version := v.scene.Version()
				angle := v.ViewAngle()
				if version == lastVersion && angle == lastAngle && version != 0 {
					continue
				}
				lastVersion, lastAngle = version, angle
				v.RenderOnce()
			}
		}
	}()
}

// RenderOnce composites the current scene into an image and records it as
// the latest rendered frame. The render thread calls it repeatedly; tests and
// examples may call it directly. Each call returns a freshly allocated image
// that the caller owns: callers keep it (LastImage, a session's final image),
// so it is never pooled or reused for a later frame.
func (v *Viewer) RenderOnce() *render.Image {
	rz := scenegraph.Rasterizer{Width: v.cfg.ViewWidth, Height: v.cfg.ViewHeight}
	img := rz.Render(v.scene)
	v.renderMu.Lock()
	v.lastImage = img
	v.rendered++
	v.renderMu.Unlock()
	return img
}

// LastImage returns the most recently rendered image, or nil if the render
// loop has not produced one yet.
func (v *Viewer) LastImage() *render.Image {
	v.renderMu.Lock()
	defer v.renderMu.Unlock()
	return v.lastImage
}

// Stop ends the render loop and waits for it to exit.
func (v *Viewer) Stop() {
	v.stopOnce.Do(func() { close(v.stopCh) })
	v.renderWG.Wait()
}

// Stats returns a snapshot of the viewer's counters.
func (v *Viewer) Stats() Stats {
	v.mu.Lock()
	payloads, completed, bytes := v.payloads, v.completed, v.bytes
	v.mu.Unlock()
	v.renderMu.Lock()
	rendered := v.rendered
	v.renderMu.Unlock()
	return Stats{
		PayloadsReceived: payloads,
		FramesCompleted:  completed,
		BytesReceived:    bytes,
		RenderedFrames:   int(rendered),
		SceneVersion:     v.scene.Version(),
	}
}

// Frames returns the per-frame assembly records, ordered by frame number.
func (v *Viewer) Frames() []FrameRecord {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]FrameRecord, 0, len(v.frames))
	for _, rec := range v.frames {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Frame < out[j].Frame })
	return out
}

// CompositeView renders the assembled slab textures the IBRAVR way: quads
// composited back-to-front after rotating the view by the current angle. It
// is a convenience wrapper over the scene rasterizer used by examples that
// want a single image without starting the render loop. As with RenderOnce,
// the returned image is freshly allocated and owned by the caller.
func (v *Viewer) CompositeView() (*render.Image, error) {
	quads := v.scene.TextureQuads()
	if len(quads) == 0 {
		return nil, errors.New("viewer: scene has no textures yet")
	}
	return v.RenderOnce(), nil
}
