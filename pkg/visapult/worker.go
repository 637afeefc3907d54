package visapult

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"visapult/internal/backend/framecache"
	"visapult/internal/core"
	"visapult/internal/wire"
)

// The scheduler's control protocol: one TCP connection per dispatched run,
// mirroring the paper's deployment where a pool of back-end workers executes
// sessions near the data while a control plane places work on them.
//
// The conversation rides the binary framing of internal/wire/dispatch.go.
// The dispatcher opens with the magic preamble and one request frame: DPing,
// answered by a single DPong carrying the worker's hello, or DRun with the
// RunSpec. A run's connection then carries the dispatcher's control ops
// (cancel, and seq-numbered viewer attach/detach/viewers answered by ctrl
// acks echoing the sequence number) one way, and the worker's per-frame
// metrics, ctrl acks, optional raw slab payloads for dispatcher-side cache
// seeding, and exactly one terminal result or error frame the other.
//
// A worker that dies mid-run simply drops the connection — the missing
// terminal reply is how the dispatcher distinguishes a dead worker (re-queue
// the run elsewhere) from a run that failed on a healthy one.

// workerIOTimeout bounds the dispatch handshake read and each reply write on
// a worker control connection: a peer that connects and goes silent, or stops
// draining replies, breaks its own connection instead of pinning the worker.
const workerIOTimeout = 30 * time.Second

// ctrlAck is the worker's answer to one seq-numbered viewer operation. A
// NoFanout ack maps back to ErrNoFanout on the client, which is how a
// coalesced follower knows to retry its attach while the remote pipeline is
// still starting.
type ctrlAck struct {
	Seq      int64
	Err      string
	NoFanout bool
	Viewers  []ViewerDelivery
}

// WorkerHello is a worker's answer to a ping: its configured capacity and
// current load.
type WorkerHello struct {
	Capacity int `json:"capacity"`
	Active   int `json:"active"`
}

// RemoteResult is the summary a worker ships back for a completed run. It
// carries the full per-frame statistics but not the NetLogger event stream or
// the final image — those stay with the worker (remote runs report metrics;
// pixels belong to the viewer the worker's pipeline fed).
type RemoteResult struct {
	Backend RunStats      `json:"backend"`
	Viewer  ViewerStats   `json:"viewer"`
	Elapsed time.Duration `json:"elapsed"`
	// Viewers carries the per-viewer receive and delivery records of a
	// multi-viewer (fan-out) spec executed on the worker.
	Viewers []ViewerResult `json:"viewers,omitempty"`
}

// result converts the wire summary back into a facade Result.
func (rr *RemoteResult) result() *Result {
	return &Result{Backend: rr.Backend, Viewer: rr.Viewer, Viewers: rr.Viewers, Elapsed: rr.Elapsed}
}

// WorkerConfig configures ServeWorker.
type WorkerConfig struct {
	// Capacity is the number of dispatched runs the worker executes
	// concurrently (default 2); beyond it, dispatch requests are rejected
	// with a busy reply.
	Capacity int
	// FrameCacheBytes bounds a slab-texture cache shared by every run this
	// worker executes: repeat dispatches of a spec with the same content
	// identity replay rendered frames instead of raycasting again. Zero or
	// negative disables caching.
	FrameCacheBytes int64
	// RenderWorkers is the default render-pool size for dispatched runs that
	// do not carry their own RunSpec.RenderWorkers; 0 leaves the facade
	// default (GOMAXPROCS).
	RenderWorkers int
	// Logf, when non-nil, receives one line per accepted and completed run.
	Logf func(format string, args ...any)
}

// ServeWorker turns the calling process into a dispatch worker: it accepts
// control connections on l and executes each dispatched RunSpec as an
// in-process pipeline, streaming per-frame metrics back as they happen.
// cmd/visapult-backend's -serve-control mode is this function; tests use it
// directly to stand up in-process fake workers.
//
// ServeWorker blocks until ctx is cancelled (returning nil) or the listener
// fails (returning the error). Cancelling ctx closes the listener and every
// in-flight connection first, then aborts the running pipelines — so a
// killed worker looks like a dropped connection to its dispatchers, which is
// what triggers their re-queue path.
func ServeWorker(ctx context.Context, l net.Listener, cfg WorkerConfig) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 2
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ws := &workerServer{ctx: ctx, capacity: cfg.Capacity, logf: logf,
		cache:         framecache.New(cfg.FrameCacheBytes),
		renderWorkers: cfg.RenderWorkers,
		conns:         make(map[net.Conn]struct{})}

	// Close the listener AND the accepted connections on cancellation, in
	// that order: connections dropping before any polite error reply can be
	// written is what makes a shutdown indistinguishable from a crash to the
	// dispatchers — exactly the signal their re-queueing needs.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
			ws.closeConns()
		case <-watchDone:
		}
	}()

	var err error
	backoff := 5 * time.Millisecond
	for {
		conn, aerr := l.Accept()
		if aerr != nil {
			if ctx.Err() != nil || errors.Is(aerr, net.ErrClosed) {
				break
			}
			// Transient accept failures (fd exhaustion, aborted handshakes)
			// must not take the whole worker out of the pool; back off and
			// keep serving, like net/http.Server does.
			if isTransientAccept(aerr) {
				logf("worker: accept: %v (retrying in %v)", aerr, backoff)
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
				}
				backoff = min(2*backoff, time.Second)
				continue
			}
			err = aerr
			break
		}
		backoff = 5 * time.Millisecond
		if !ws.track(conn) {
			conn.Close()
			break
		}
		ws.wg.Add(1)
		go ws.handle(conn)
	}
	ws.wg.Wait()
	return err
}

// isTransientAccept reports whether an Accept error is worth retrying
// rather than shutting the worker down.
func isTransientAccept(err error) bool {
	return errors.Is(err, syscall.EMFILE) ||
		errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) ||
		errors.Is(err, syscall.EINTR)
}

// workerServer is the shared state of one ServeWorker invocation.
type workerServer struct {
	ctx      context.Context
	capacity int
	logf     func(string, ...any)
	cache    *framecache.Cache // shared across runs; nil = caching disabled
	// renderWorkers is the default render-pool size for dispatched runs.
	renderWorkers int
	active        atomic.Int64
	wg            sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// track records an accepted connection for shutdown; false once closing.
func (ws *workerServer) track(c net.Conn) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return false
	}
	ws.conns[c] = struct{}{}
	return true
}

func (ws *workerServer) untrack(c net.Conn) {
	ws.mu.Lock()
	delete(ws.conns, c)
	ws.mu.Unlock()
}

func (ws *workerServer) closeConns() {
	ws.mu.Lock()
	ws.closed = true
	conns := make([]net.Conn, 0, len(ws.conns))
	for c := range ws.conns {
		conns = append(conns, c)
	}
	ws.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// tryAcquire claims a capacity slot, failing when the worker is full.
func (ws *workerServer) tryAcquire() bool {
	for {
		a := ws.active.Load()
		if int(a) >= ws.capacity {
			return false
		}
		if ws.active.CompareAndSwap(a, a+1) {
			return true
		}
	}
}

// replyLink is one dispatched run's control connection as the worker sees
// it. Send methods are safe for concurrent use (frames arrive from the PE
// goroutines while acks and the terminal reply come from others); next is
// called only by the run's monitor goroutine. A failed send is deliberately
// swallowed — a dispatcher that stopped reading is indistinguishable from a
// dead one, and the monitor's read error is what cancels the run.
type replyLink struct {
	conn  net.Conn
	dc    *wire.DispatchConn
	slabs bool // the dispatcher asked for slab delivery
}

// write arms a fresh write deadline and sends one frame. DispatchConn
// serializes concurrent writers internally.
func (l *replyLink) write(t wire.DType, segs ...[]byte) {
	l.conn.SetWriteDeadline(time.Now().Add(workerIOTimeout)) //nolint:errcheck
	l.dc.WriteFrame(t, segs...)                              //nolint:errcheck // see replyLink: a failed send means the dispatcher is gone
}

// next decodes the next control op from the dispatcher.
func (l *replyLink) next() (wire.DispatchCtrl, error) {
	var c wire.DispatchCtrl
	t, payload, err := l.dc.ReadFrame()
	if err != nil {
		return c, err
	}
	if t != wire.DCtrl {
		return c, fmt.Errorf("visapult: unexpected %v frame on dispatch control stream", t)
	}
	err = c.Decode(payload)
	return c, err
}

func (l *replyLink) sendFrame(fm FrameMetric) {
	df := dispatchFrameOf(fm)
	buf := wire.GetDispatchBuf()
	*buf = df.Append(*buf)
	l.write(wire.DFrame, *buf)
	wire.PutDispatchBuf(buf)
}

func (l *replyLink) sendCtrlAck(ack ctrlAck) {
	wa := wire.DispatchCtrlAck{Seq: ack.Seq, NoFanout: ack.NoFanout, Err: ack.Err}
	if len(ack.Viewers) > 0 {
		wa.Viewers = make([]wire.DispatchViewer, len(ack.Viewers))
		for i, v := range ack.Viewers {
			wa.Viewers[i] = dispatchViewerOf(v)
		}
	}
	buf := wire.GetDispatchBuf()
	*buf = wa.Append(*buf)
	l.write(wire.DCtrlAck, *buf)
	wire.PutDispatchBuf(buf)
}

func (l *replyLink) sendResult(rr *RemoteResult) {
	// The terminal result is sent once per run: JSON inside a binary frame
	// keeps the cold path simple without reopening the schema.
	data, err := json.Marshal(rr)
	if err != nil {
		l.sendError("visapult: encoding run result: "+err.Error(), false)
		return
	}
	l.write(wire.DResult, data)
}

func (l *replyLink) sendError(msg string, busy bool) {
	de := wire.DispatchError{Busy: busy, Msg: msg}
	buf := wire.GetDispatchBuf()
	*buf = de.Append(*buf)
	l.write(wire.DError, *buf)
	wire.PutDispatchBuf(buf)
}

func (l *replyLink) sendSlab(light *wire.LightPayload, heavy *wire.HeavyPayload) {
	buf := wire.GetDispatchBuf()
	hdr, err := wire.AppendDispatchSlabHeader(*buf, light, heavy)
	*buf = hdr
	if err == nil {
		// Header and texture go out as two segments of one vectored write;
		// the texture bytes are never copied.
		l.write(wire.DSlab, *buf, heavy.Texture)
	}
	wire.PutDispatchBuf(buf)
}

// dispatchFrameOf converts a frame metric to its fixed-layout wire form.
func dispatchFrameOf(fm FrameMetric) wire.DispatchFrame {
	return wire.DispatchFrame{
		Frame: fm.Frame, PE: fm.PE,
		LoadNS: int64(fm.Load), RenderNS: int64(fm.Render),
		SendNS: int64(fm.Send), CopyNS: int64(fm.Copy),
		BytesLoaded: fm.BytesLoaded, BytesSent: fm.BytesSent,
		CacheHit: fm.CacheHit,
	}
}

// frameMetricOf is the inverse of dispatchFrameOf.
func frameMetricOf(df wire.DispatchFrame) FrameMetric {
	return FrameMetric{
		Frame: df.Frame, PE: df.PE,
		Load: time.Duration(df.LoadNS), Render: time.Duration(df.RenderNS),
		Send: time.Duration(df.SendNS), Copy: time.Duration(df.CopyNS),
		BytesLoaded: df.BytesLoaded, BytesSent: df.BytesSent,
		CacheHit: df.CacheHit,
	}
}

// dispatchViewerOf converts a delivery record to its wire form.
func dispatchViewerOf(v ViewerDelivery) wire.DispatchViewer {
	var attached int64
	if !v.Attached.IsZero() {
		attached = v.Attached.UnixNano()
	}
	return wire.DispatchViewer{
		ID: v.ID, AttachedUnixNano: attached,
		StartFrame: v.StartFrame, FramesSent: v.FramesSent,
		FramesDropped: v.FramesDropped, QueueDepth: v.QueueDepth,
		BytesSent: v.BytesSent, Detached: v.Detached, Error: v.Error,
	}
}

// viewerDeliveryOf is the inverse of dispatchViewerOf.
func viewerDeliveryOf(v wire.DispatchViewer) ViewerDelivery {
	var attached time.Time
	if v.AttachedUnixNano != 0 {
		attached = time.Unix(0, v.AttachedUnixNano)
	}
	return ViewerDelivery{
		ID: v.ID, Attached: attached,
		StartFrame: v.StartFrame, FramesSent: v.FramesSent,
		FramesDropped: v.FramesDropped, QueueDepth: v.QueueDepth,
		BytesSent: v.BytesSent, Detached: v.Detached, Error: v.Error,
	}
}

// handle services one control connection: the magic preamble, then a ping
// or a run request. Anything else — a JSON opener included — is dropped
// without a reply.
func (ws *workerServer) handle(conn net.Conn) {
	defer ws.wg.Done()
	defer ws.untrack(conn)
	defer conn.Close()

	// The request is a handshake: a client that connects and then sends
	// nothing must not pin this goroutine forever. The framing captures conn
	// as a bare io.Writer, so arm the initial write deadline here too;
	// replyLink.write re-arms it before every reply.
	conn.SetReadDeadline(time.Now().Add(workerIOTimeout))  //nolint:errcheck
	conn.SetWriteDeadline(time.Now().Add(workerIOTimeout)) //nolint:errcheck
	var magic [len(wire.DispatchMagic)]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil || string(magic[:]) != wire.DispatchMagic {
		return
	}
	link := &replyLink{conn: conn, dc: wire.NewDispatchConn(conn, conn)}
	t, payload, err := link.dc.ReadFrame()
	if err != nil {
		return
	}
	switch t {
	case wire.DPing:
		hello, err := json.Marshal(WorkerHello{Capacity: ws.capacity, Active: int(ws.active.Load())})
		if err == nil {
			link.write(wire.DPong, hello)
		}
	case wire.DRun:
		var rm wire.DispatchRun
		if err := rm.Decode(payload); err != nil {
			return
		}
		spec := new(RunSpec)
		// Decode the spec before the monitor goroutine's next ReadFrame
		// recycles the buffer rm.Spec aliases.
		if err := json.Unmarshal(rm.Spec, spec); err != nil {
			link.sendError("visapult: malformed run spec: "+err.Error(), false)
			return
		}
		conn.SetReadDeadline(time.Time{}) //nolint:errcheck // the control stream waits as long as the run
		link.slabs = rm.WantSlabs
		ws.run(rm.Name, spec, link)
	}
}

// run executes one dispatched spec, streaming frames and a terminal reply.
func (ws *workerServer) run(name string, spec *RunSpec, link *replyLink) {
	if spec == nil {
		link.sendError("visapult: dispatch request carries no spec", false)
		return
	}
	if !ws.tryAcquire() {
		link.sendError("visapult: worker at capacity", true)
		return
	}
	defer ws.active.Add(-1)

	opts, err := spec.Options()
	if err != nil {
		link.sendError(err.Error(), false)
		return
	}
	// The worker-wide render-pool default applies only when the dispatched
	// spec does not size the pool itself.
	if ws.renderWorkers > 0 && spec.RenderWorkers == 0 {
		opts = append(opts, WithRenderWorkers(ws.renderWorkers))
	}
	opts = append(opts, WithFrameHook(func(fm FrameMetric) {
		link.sendFrame(fm)
	}))
	if link.slabs {
		opts = append(opts, withSlabHook(func(light *wire.LightPayload, heavy *wire.HeavyPayload) {
			link.sendSlab(light, heavy)
		}))
	}
	if ws.cache != nil {
		dataset, tf := spec.cacheIdentity()
		opts = append(opts, withFrameCache(ws.cache, dataset, tf))
	}
	// Capture the run's fan-out control once its pipeline goes live, so the
	// monitor goroutine can service remote viewer attach/detach against it.
	var fanoutMu sync.Mutex
	var fanout *core.FanoutControl // guarded by fanoutMu
	opts = append(opts, withFanoutControl(func(fc *core.FanoutControl) {
		fanoutMu.Lock()
		fanout = fc
		fanoutMu.Unlock()
	}))
	p, err := New(opts...)
	if err != nil {
		link.sendError(err.Error(), false)
		return
	}

	// viewerOp services one attach/detach/viewers control message against the
	// live fan-out. Before the pipeline publishes its control (or for a spec
	// without viewers) the ack carries NoFanout, which the client maps back to
	// ErrNoFanout — the retryable "not live yet" signal.
	viewerOp := func(msg wire.DispatchCtrl) ctrlAck {
		ack := ctrlAck{Seq: msg.Seq}
		fanoutMu.Lock()
		fc := fanout
		fanoutMu.Unlock()
		if fc == nil || !fc.Active() {
			ack.NoFanout = true
			ack.Err = ErrNoFanout.Error()
			return ack
		}
		switch msg.Op {
		case wire.DCtrlAttach:
			if err := fc.Attach(msg.Viewer); err != nil {
				ack.Err = err.Error()
			}
		case wire.DCtrlDetach:
			if err := fc.Detach(msg.Viewer); err != nil {
				ack.Err = err.Error()
			}
		case wire.DCtrlViewers:
			ack.Viewers = fc.Viewers()
		}
		return ack
	}

	// The run lives as long as the worker and the dispatcher both do: the
	// monitor goroutine cancels it when the client drops the connection or
	// sends an explicit cancel, and services viewer control operations in
	// between.
	runCtx, cancel := context.WithCancel(ws.ctx)
	defer cancel()
	go func() {
		for {
			msg, err := link.next()
			if err != nil {
				cancel()
				return
			}
			switch msg.Op {
			case wire.DCtrlCancel:
				cancel()
				return
			case wire.DCtrlAttach, wire.DCtrlDetach, wire.DCtrlViewers:
				link.sendCtrlAck(viewerOp(msg))
			default:
				cancel()
				return
			}
		}
	}()

	ws.logf("worker: run %q dispatched (%d active)", name, ws.active.Load())
	res, err := p.Run(runCtx)
	if err != nil {
		// On worker shutdown, say nothing: the dropped connection is the
		// protocol's "worker died" signal and must not be softened into a
		// run error, which dispatchers attribute to the run, not the worker.
		if ws.ctx.Err() != nil {
			return
		}
		ws.logf("worker: run %q failed: %v", name, err)
		link.sendError(err.Error(), false)
		return
	}
	ws.logf("worker: run %q done in %v", name, res.Elapsed)
	link.sendResult(&RemoteResult{
		Backend: res.Backend, Viewer: res.Viewer, Viewers: res.Viewers, Elapsed: res.Elapsed,
	})
}
