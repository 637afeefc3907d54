package visapult

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"visapult/internal/wire"
)

// Client side of the scheduler's control protocol: dial a worker, ship a
// RunSpec, relay the frame stream, and classify how the exchange ended. The
// classification is what drives the Manager's failure handling — a
// remoteRunError means the worker is healthy and the run itself failed (retry
// elsewhere, worker stays live), while any transport-level error means the
// worker is gone (retry elsewhere AND mark the worker dead).
//
// The conversation is the binary framing of internal/wire/dispatch.go (see
// worker.go for the message flow). When asked, the worker also streams raw
// slab payloads back, so the dispatcher can seed its own frame cache from
// remote renders.

// remoteRunError is a run failure reported by a live worker over the
// protocol, as opposed to a dropped connection.
type remoteRunError struct{ msg string }

func (e *remoteRunError) Error() string { return e.msg }

// errWorkerBusy is a dispatch rejected by a worker's own capacity gate. The
// pool's slot accounting makes this rare (another client of the same worker,
// or a capacity registered higher than the worker's); it is retried without
// declaring the worker dead.
var errWorkerBusy = errors.New("visapult: worker at capacity")

// errDispatchClosed reports a viewer control operation attempted after the
// run's dispatch connection ended.
var errDispatchClosed = errors.New("visapult: dispatch connection closed")

// dispatchHandle is the client end of a live dispatched run's control
// channel: it multiplexes seq-numbered viewer operations (attach, detach,
// viewers) onto the same connection the frame stream rides, and correlates
// the worker's ctrl acks back to their waiting callers.
type dispatchHandle struct {
	conn net.Conn
	dc   *wire.DispatchConn

	wmu sync.Mutex // pairs each control write with its write deadline

	mu      sync.Mutex
	seq     int64                  // guarded by mu
	pending map[int64]chan ctrlAck // guarded by mu
	closed  bool                   // guarded by mu
}

// roundTrip sends one control request and waits for its ack. The write is
// deadline-bounded; the wait is bounded by ctx and by the connection's
// lifetime (fail closes every pending channel).
func (h *dispatchHandle) roundTrip(ctx context.Context, op wire.DispatchCtrlOp, viewer string) (ctrlAck, error) {
	ch := make(chan ctrlAck, 1)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ctrlAck{}, errDispatchClosed
	}
	h.seq++
	seq := h.seq
	h.pending[seq] = ch
	h.mu.Unlock()

	c := wire.DispatchCtrl{Op: op, Seq: seq, Viewer: viewer}
	buf := wire.GetDispatchBuf()
	*buf = c.Append(*buf)
	h.wmu.Lock()
	h.conn.SetWriteDeadline(time.Now().Add(workerIOTimeout)) //nolint:errcheck
	err := h.dc.WriteFrame(wire.DCtrl, *buf)
	h.wmu.Unlock()
	wire.PutDispatchBuf(buf)
	if err != nil {
		h.drop(seq)
		return ctrlAck{}, fmt.Errorf("visapult: sending control op %d to worker: %w", op, err)
	}
	select {
	case ack, ok := <-ch:
		if !ok {
			return ctrlAck{}, errDispatchClosed
		}
		return ack, nil
	case <-ctx.Done():
		h.drop(seq)
		return ctrlAck{}, ctx.Err()
	}
}

func (h *dispatchHandle) drop(seq int64) {
	h.mu.Lock()
	delete(h.pending, seq)
	h.mu.Unlock()
}

// deliver routes one ctrl ack from the frame-stream decode loop to the
// round-trip waiting on its sequence number.
func (h *dispatchHandle) deliver(ack ctrlAck) {
	h.mu.Lock()
	ch := h.pending[ack.Seq]
	delete(h.pending, ack.Seq)
	h.mu.Unlock()
	if ch != nil {
		ch <- ack
	}
}

// fail marks the connection ended and releases every pending round-trip.
func (h *dispatchHandle) fail() {
	h.mu.Lock()
	h.closed = true
	for seq, ch := range h.pending {
		close(ch)
		delete(h.pending, seq)
	}
	h.mu.Unlock()
}

// viewerOp runs one attach/detach against the remote fan-out, translating a
// NoFanout ack back into the ErrNoFanout sentinel local runs produce.
func (h *dispatchHandle) viewerOp(ctx context.Context, op wire.DispatchCtrlOp, id string) error {
	ack, err := h.roundTrip(ctx, op, id)
	if err != nil {
		return err
	}
	if ack.NoFanout {
		return fmt.Errorf("remote viewer %q: %w", id, ErrNoFanout)
	}
	if ack.Err != "" {
		return errors.New(ack.Err)
	}
	return nil
}

// remotePort is the viewerPort of a run placed on a remote worker: viewer
// operations travel the run's dispatch connection as control messages.
type remotePort struct{ h *dispatchHandle }

func (p remotePort) attach(ctx context.Context, id string) error {
	return p.h.viewerOp(ctx, wire.DCtrlAttach, id)
}

func (p remotePort) detach(ctx context.Context, id string) error {
	return p.h.viewerOp(ctx, wire.DCtrlDetach, id)
}

func (p remotePort) viewers(ctx context.Context) ([]ViewerDelivery, error) {
	ack, err := p.h.roundTrip(ctx, wire.DCtrlViewers, "")
	if err != nil {
		return nil, err
	}
	if ack.NoFanout {
		return nil, fmt.Errorf("remote run: %w", ErrNoFanout)
	}
	if ack.Err != "" {
		return nil, errors.New(ack.Err)
	}
	return ack.Viewers, nil
}

// pingTimeout bounds a health probe when the caller's context has no
// deadline of its own.
const pingTimeout = 5 * time.Second

// pingWorker checks that a worker answers the control protocol and returns
// its advertised capacity and load: one DPing frame, one DPong back.
func pingWorker(ctx context.Context, addr string) (WorkerHello, error) {
	// Bound the whole probe — including the dial, which against a
	// blackholed address would otherwise block for the kernel's SYN retry
	// timeout (minutes) when the caller's context has no deadline.
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pingTimeout)
		defer cancel()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return WorkerHello{}, err
	}
	defer conn.Close()
	dl, _ := ctx.Deadline()
	conn.SetDeadline(dl)
	dc := wire.NewDispatchConn(conn, conn)
	if err := wire.WriteDispatchMagic(conn); err != nil {
		return WorkerHello{}, err
	}
	if err := dc.WriteFrame(wire.DPing); err != nil {
		return WorkerHello{}, err
	}
	t, payload, err := dc.ReadFrame()
	if err != nil {
		return WorkerHello{}, err
	}
	var hello WorkerHello
	if t != wire.DPong || json.Unmarshal(payload, &hello) != nil {
		return WorkerHello{}, fmt.Errorf("visapult: malformed ping reply (%v frame)", t)
	}
	return hello, nil
}

// slabSink receives raw slab payload pairs streamed back by a worker; the
// payloads are freshly decoded and owned by the callee.
type slabSink func(light *wire.LightPayload, heavy *wire.HeavyPayload)

// dispatchRun executes one spec on the worker at addr, invoking onFrame for
// every streamed frame metric, and returns the run's result. onHandle, when
// non-nil, receives the live dispatch handle once the run request is on the
// wire — the scheduler publishes it as the run's viewer port so
// attach/detach reach the worker's fan-out; the handle dies with this call.
// onSlab, when non-nil, asks the worker to stream rendered slab payloads
// back. Cancelling ctx closes the connection, which cancels the run on the
// worker too.
func dispatchRun(ctx context.Context, addr, name string, spec RunSpec,
	onFrame func(FrameMetric), onHandle func(*dispatchHandle), onSlab slabSink) (*Result, error) {
	specJSON, err := json.Marshal(&spec)
	if err != nil {
		return nil, fmt.Errorf("visapult: encoding run %q spec: %w", name, err)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("visapult: dialing worker %s: %w", addr, err)
	}
	defer conn.Close()
	// A cancelled dispatch context closes the connection: that bounds every
	// exchange below and tells the worker to abort the run.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	dc := wire.NewDispatchConn(conn, conn)
	h := &dispatchHandle{conn: conn, dc: dc, pending: make(map[int64]chan ctrlAck)}
	defer h.fail()

	conn.SetWriteDeadline(time.Now().Add(workerIOTimeout)) //nolint:errcheck // re-armed per control write
	if err := wire.WriteDispatchMagic(conn); err == nil {
		rm := wire.DispatchRun{WantSlabs: onSlab != nil, Name: name, Spec: specJSON}
		buf := wire.GetDispatchBuf()
		*buf = rm.Append(*buf)
		err = dc.WriteFrame(wire.DRun, *buf)
		wire.PutDispatchBuf(buf)
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("visapult: sending run %q to worker %s: %w", name, addr, err)
	}
	if onHandle != nil {
		onHandle(h)
	}
	for {
		t, payload, err := dc.ReadFrame()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			// The stream ended without a terminal reply: the worker died.
			return nil, fmt.Errorf("visapult: worker %s dropped run %q: %w", addr, name, err)
		}
		switch t {
		case wire.DFrame:
			var df wire.DispatchFrame
			if err := df.Decode(payload); err != nil {
				return nil, fmt.Errorf("visapult: worker %s run %q: %w", addr, name, err)
			}
			if onFrame != nil {
				onFrame(frameMetricOf(df))
			}
		case wire.DCtrlAck:
			var wa wire.DispatchCtrlAck
			if err := wa.Decode(payload); err != nil {
				return nil, fmt.Errorf("visapult: worker %s run %q: %w", addr, name, err)
			}
			ack := ctrlAck{Seq: wa.Seq, Err: wa.Err, NoFanout: wa.NoFanout}
			if len(wa.Viewers) > 0 {
				ack.Viewers = make([]ViewerDelivery, len(wa.Viewers))
				for i, v := range wa.Viewers {
					ack.Viewers[i] = viewerDeliveryOf(v)
				}
			}
			h.deliver(ack)
		case wire.DSlab:
			// DecodeDispatchSlab copies the texture out of the read buffer,
			// so the payloads handed to onSlab are safe to retain.
			light, heavy, err := wire.DecodeDispatchSlab(payload)
			if err != nil {
				return nil, fmt.Errorf("visapult: worker %s run %q slab: %w", addr, name, err)
			}
			if onSlab != nil {
				onSlab(light, heavy)
			}
		case wire.DResult:
			var rr RemoteResult
			if err := json.Unmarshal(payload, &rr); err != nil {
				return nil, fmt.Errorf("visapult: worker %s run %q result: %w", addr, name, err)
			}
			return rr.result(), nil
		case wire.DError:
			var de wire.DispatchError
			if err := de.Decode(payload); err != nil {
				return nil, fmt.Errorf("visapult: worker %s run %q: %w", addr, name, err)
			}
			if de.Busy {
				return nil, errWorkerBusy
			}
			return nil, &remoteRunError{de.Msg}
		default:
			return nil, fmt.Errorf("visapult: worker %s run %q: unexpected %v frame", addr, name, t)
		}
	}
}
