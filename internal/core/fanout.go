package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"visapult/internal/backend"
	"visapult/internal/netlogger"
	"visapult/internal/viewer"
	"visapult/internal/volume"
)

// ViewerResult reports one viewer of a fan-out session: its receive-side
// counters and the sender-side delivery record the fan-out kept for it.
type ViewerResult struct {
	ID       string
	Stats    viewer.Stats
	Delivery backend.ViewerDelivery
	// Err is the viewer's terminal serve error, empty for clean streams.
	Err string
}

// ends is the viewer side of one run, whatever its shape: no end (frames go
// to a discarding sink), one direct end whose per-PE sinks the PEs write to
// with back-pressure, or any number of ends behind the fan-out stage, which
// gives each a bounded send queue and drops frames past it. Every end with
// a link has its return channel drained; under FollowView end 0's best-axis
// hints steer the back end.
type ends struct {
	cfg SessionConfig
	fan *backend.Fanout                 // nil unless cfg.Viewers >= 1
	be  atomic.Pointer[backend.BackEnd] // steered once built

	mu sync.Mutex
	// instances maps attached ids to their ends (nil while one is built).
	// guarded by mu
	instances map[string]*end
	// order is every end ever attached, in attach order.
	// guarded by mu
	order  []*end
	seq    int  // guarded by mu
	closed bool // guarded by mu
}

// steer applies a best-axis hint to the run's back end.
func (vs *ends) steer(axis volume.Axis) {
	if be := vs.be.Load(); be != nil {
		be.SetAxis(axis)
	}
}

// sinks returns what the back end's PEs write to.
func (vs *ends) sinks() []backend.FrameSink {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	switch {
	case vs.fan != nil:
		return vs.fan.Sinks()
	case len(vs.order) == 0:
		return []backend.FrameSink{&backend.NullSink{}}
	default:
		return vs.order[0].sinks
	}
}

// attach opens the end named id, drains its return channel and, in a
// fan-out run, puts it behind the fan-out; an end attached while the run is
// in flight starts receiving at the next frame boundary.
func (vs *ends) attach(id string, open openEnd) error {
	vs.mu.Lock()
	if vs.closed {
		vs.mu.Unlock()
		return errors.New("core: fan-out session has ended, cannot attach")
	}
	if _, ok := vs.instances[id]; ok {
		vs.mu.Unlock()
		return fmt.Errorf("core: viewer %q is already attached", id)
	}
	// Reserve the id (nil entry) before dropping the lock to open the end:
	// a concurrent attach with the same id must fail here, not overwrite the
	// registration below.
	vs.instances[id] = nil
	seq := vs.seq
	vs.seq++
	vs.mu.Unlock()

	var steer func(volume.Axis)
	if seq == 0 && vs.cfg.FollowView {
		steer = vs.steer
	}
	e, err := open(id, steer)
	if err != nil {
		vs.mu.Lock()
		delete(vs.instances, id)
		vs.mu.Unlock()
		return err
	}
	e.id = id
	if e.link != nil {
		e.link.DrainHints(steer)
	}

	vs.mu.Lock()
	if vs.closed {
		delete(vs.instances, id)
		vs.mu.Unlock()
		e.finish(0)
		return errors.New("core: fan-out session has ended, cannot attach")
	}
	vs.instances[id] = e
	vs.order = append(vs.order, e)
	vs.mu.Unlock()
	if vs.fan == nil {
		return nil
	}
	if err := vs.fan.Attach(id, e.sinks); err != nil {
		vs.mu.Lock()
		delete(vs.instances, id)
		for i, o := range vs.order {
			if o == e {
				vs.order = append(vs.order[:i], vs.order[i+1:]...)
				break
			}
		}
		vs.mu.Unlock()
		e.finish(0)
		return err
	}
	return nil
}

// snapshot returns every end ever attached, in attach order.
func (vs *ends) snapshot() []*end {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return append([]*end(nil), vs.order...)
}

// abort closes every end's connections without ending their streams: the
// path of a cancelled run.
func (vs *ends) abort() {
	for _, e := range vs.snapshot() {
		if e.link != nil {
			e.link.Close()
		}
	}
}

// finish refuses further attaches, flushes what the fan-out's queues still
// hold, then ends every viewer's streams concurrently. A sender wedged on a
// stalled viewer past the grace is unblocked by its end's teardown closing
// the connections.
func (vs *ends) finish() {
	vs.mu.Lock()
	vs.closed = true
	vs.mu.Unlock()
	if vs.fan != nil {
		vs.fan.Close(drainGrace)
	}
	var wg sync.WaitGroup
	for _, e := range vs.snapshot() {
		wg.Add(1)
		go func(e *end) {
			defer wg.Done()
			e.finish(drainGrace)
		}(e)
	}
	wg.Wait()
}

// result assembles a finished run's report: the primary viewer's stats and
// final view, every fan-out viewer's record and the merged NetLogger stream.
func (vs *ends) result(stats backend.RunStats, elapsed time.Duration, logger *netlogger.Logger) (*SessionResult, error) {
	order := vs.snapshot()
	// A direct viewer's stream error fails the run; finish, called again,
	// returns the teardown's outcome.
	if vs.fan == nil && len(order) == 1 {
		if err := order[0].finish(0); err != nil {
			return nil, err
		}
	}
	res := &SessionResult{Backend: stats, Elapsed: elapsed}
	if len(order) > 0 && order[0].vw != nil {
		res.Viewer = order[0].vw.Stats()
		if img, err := order[0].vw.CompositeView(); err == nil {
			res.FinalImage = img
		}
	}
	if vs.fan != nil {
		// Snapshot the delivery counters only after the teardown: a sender
		// that was wedged on a stalled connection settles its final tally
		// when the teardown closes that connection. An id reused after a
		// detach appears more than once in the snapshot, so pair each end
		// with the first unconsumed record carrying its id.
		deliveries := vs.fan.Viewers()
		used := make([]bool, len(deliveries))
		for _, e := range order {
			vr := ViewerResult{ID: e.id, Delivery: backend.ViewerDelivery{ID: e.id}}
			for i, d := range deliveries {
				if !used[i] && d.ID == e.id {
					used[i] = true
					vr.Delivery = d
					break
				}
			}
			if e.vw != nil {
				vr.Stats = e.vw.Stats()
			}
			if err := e.finish(0); err != nil {
				vr.Err = err.Error()
			}
			res.Viewers = append(res.Viewers, vr)
		}
	}
	if vs.cfg.Instrument {
		collector := netlogger.NewCollector()
		collector.AddLogger(logger)
		for _, e := range order {
			if e.logger != nil {
				collector.AddLogger(e.logger)
			}
		}
		res.Events = collector.Events()
	}
	return res, nil
}

// FanoutControl is the live handle of a fan-out session: attach and detach
// viewers while the run executes, and read per-viewer delivery metrics. All
// methods are safe for concurrent use; the handle stays readable (Viewers)
// after the session ends, while Attach and Detach then fail.
type FanoutControl struct{ *ends }

// Active reports whether the fan-out still accepts viewer operations (the
// session has not begun tearing down). A retention sweep uses it to tell a
// finished session's historical viewer records from live attachments.
func (fc *FanoutControl) Active() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return !fc.closed
}

// Attach builds a new in-process viewer (with the session's transport,
// dimensions and camera), wires it into the fan-out, and starts serving it.
// A viewer attached while the run is in flight starts receiving at the next
// frame boundary.
func (fc *FanoutControl) Attach(id string) error {
	return fc.attach(id, fc.cfg.serveViewer)
}

// Detach removes a viewer from the fan-out mid-run and tears its transport
// down. Its delivery record (and receive-side statistics) remain available in
// the session result and in Viewers snapshots.
func (fc *FanoutControl) Detach(id string) error {
	fc.mu.Lock()
	e, ok := fc.instances[id]
	if !ok || e == nil { // nil: a concurrent Attach is still building it
		fc.mu.Unlock()
		return fmt.Errorf("core: viewer %q is not attached", id)
	}
	delete(fc.instances, id)
	fc.mu.Unlock()
	// The sender may already be gone (failed sink), so Detach may fail; the
	// end needs finishing either way.
	_ = fc.fan.Detach(id)
	e.finish(drainGrace)
	return nil
}

// Viewers returns a snapshot of every viewer's delivery counters, in attach
// order, including viewers that already detached or failed.
func (fc *FanoutControl) Viewers() []backend.ViewerDelivery {
	return fc.fan.Viewers()
}
