package visapult

import (
	"context"
	"errors"
	"fmt"
	"time"

	"visapult/internal/core"
)

// Run coalescing: spec-described submissions whose canonical render hash
// (RunSpec.RenderHash) matches a live run do not render again. The first
// submission of a hash becomes the coalesce leader and executes normally —
// locally or on a remote worker — while later identical submissions become
// followers: they receive the leader's frame metrics live, attach their
// viewers to the leader's fan-out (locally through the FanoutControl, or
// across the dispatch protocol for remotely placed leaders), and adopt the
// leader's result. At the paper's million-viewer scale this is the request
// dedup in front of the frame cache: N identical submissions cost one render.
//
// Coalescing is placement neutral: a remotely placed leader's frame metrics
// arrive as dispatch frames (see internal/wire's dispatch codec), and the
// relay below fans the decoded FrameMetric values out to followers exactly
// as it does a local leader's. Followers never hold their own dispatch
// connection.

// viewerPort abstracts where a run's fan-out lives: in-process behind a
// core.FanoutControl, or on a remote worker behind the dispatch protocol's
// attach/detach/viewers control messages.
type viewerPort interface {
	attach(ctx context.Context, id string) error
	detach(ctx context.Context, id string) error
	viewers(ctx context.Context) ([]ViewerDelivery, error)
}

// localPort adapts a live in-process fan-out control.
type localPort struct{ fc *core.FanoutControl }

func (p localPort) attach(_ context.Context, id string) error { return p.fc.Attach(id) }
func (p localPort) detach(_ context.Context, id string) error { return p.fc.Detach(id) }
func (p localPort) viewers(_ context.Context) ([]ViewerDelivery, error) {
	return p.fc.Viewers(), nil
}

// viewerOpTimeout bounds one remote viewer control exchange when the caller
// supplies no deadline of its own.
const viewerOpTimeout = 30 * time.Second

// coalesceRetry paces follower attach retries while the leader's fan-out is
// not live yet (its pipeline is still starting on the worker).
const coalesceRetry = 100 * time.Millisecond

// claimCoalesce resolves the coalesce leadership for run r: it returns nil
// when r becomes (or already is) the leader for its render key, or the
// current live leader r must follow. Runs without a render key (non-spec) are
// always their own leader.
func (m *Manager) claimCoalesce(r *managedRun) *managedRun {
	if r.renderKey == "" {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.coalesce[r.renderKey]
	if ok && cur != r {
		cur.mu.Lock()
		terminal := cur.state.Terminal()
		cur.mu.Unlock()
		if !terminal {
			return cur
		}
	}
	m.coalesce[r.renderKey] = r
	return nil
}

// releaseCoalesce drops r's leadership claim once its execution ends, so the
// next identical submission starts a fresh render (typically served straight
// from the frame cache).
func (m *Manager) releaseCoalesce(r *managedRun) {
	if r.renderKey == "" {
		return
	}
	m.mu.Lock()
	if m.coalesce[r.renderKey] == r {
		delete(m.coalesce, r.renderKey)
	}
	m.mu.Unlock()
}

// executeSpec is the execution loop of a spec-described run: follow the live
// leader rendering the same content if there is one, otherwise lead — place
// the run through the scheduler. A follower whose leader fails or is
// cancelled re-enters the loop (it may then become the leader itself),
// bounded by the same attempt budget remote placement uses.
func (m *Manager) executeSpec(r *managedRun, ctx context.Context) {
	for {
		leader := m.claimCoalesce(r)
		if leader == nil {
			m.executeRemote(r, ctx, *r.spec)
			m.releaseCoalesce(r)
			return
		}
		retry := m.follow(r, ctx, leader)
		if !retry {
			return
		}
	}
}

// follow rides run r on the given coalesce leader: relay the leader's frame
// metrics (history first, then live), attach r's viewers to the leader's
// fan-out, and adopt the leader's result. It reports whether r should
// re-enter the execution loop because the leader did not finish successfully.
func (m *Manager) follow(r *managedRun, ctx context.Context, leader *managedRun) (retry bool) {
	if !r.beginAttempt("coalesced:"+leader.name, "") {
		return false // cancelled in the meantime
	}
	leader.addFollower(r)
	defer leader.removeFollower(r)

	// Attach this submission's viewers to the leader's fan-out. Best-effort:
	// a leader submitted without viewers has no fan-out to join, and the
	// follower still shares the metrics stream and the result.
	if r.spec.Viewers >= 1 {
		for i := 0; i < r.spec.Viewers; i++ {
			id := fmt.Sprintf("%s/v%d", r.name, i)
			if err := m.attachToLeader(ctx, leader, id); err != nil {
				break // leader finished or has no fan-out; stop trying
			}
		}
	}

	select {
	case <-leader.done:
	case <-ctx.Done():
		r.finish(nil, ctx.Err())
		return false
	}

	leader.mu.Lock()
	state, res, lerr := leader.state, leader.result, leader.err
	leader.mu.Unlock()
	if state == StateDone {
		r.finish(res, nil)
		return false
	}
	// The leader failed or was cancelled; that outcome is the leader's, not
	// this submission's. Re-queue and try again — the retry claims leadership
	// (rendering from the frame cache where the dead leader got far enough to
	// populate it) unless another submission already took over.
	if lerr == nil {
		lerr = errors.New("visapult: coalesce leader ended without a result")
	}
	errMsg := fmt.Sprintf("coalesce leader %q: %v", leader.name, lerr)
	if r.attemptCount() >= m.attemptBudget() {
		r.finish(nil, fmt.Errorf("visapult: run %q failed after %d attempts: %s", r.name, r.attemptCount(), errMsg))
		return false
	}
	return r.requeue(errMsg)
}

// attachToLeader attaches one viewer id to the leader's fan-out, waiting for
// the leader's viewer port to come live first (the leader may still be
// queued, or its pipeline still starting on a remote worker). It returns nil
// on success and an error once attaching is hopeless (leader finished, ctx
// cancelled, or the fan-out rejected the viewer for a non-transient reason).
func (m *Manager) attachToLeader(ctx context.Context, leader *managedRun, id string) error {
	for {
		port, portChange := leader.portState()
		if port != nil {
			err := port.attach(ctx, id)
			if err == nil || !errors.Is(err, ErrNoFanout) {
				return err
			}
			// The port is live but the fan-out is not (pipeline still
			// starting, or the leader has no viewers at all). Retry on a
			// short pace until the leader's run settles it.
			select {
			case <-time.After(coalesceRetry):
				continue
			case <-leader.done:
				return fmt.Errorf("run %q finished before viewer %q attached: %w", leader.name, id, ErrNoFanout)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		select {
		case <-portChange:
		case <-leader.done:
			return fmt.Errorf("run %q finished before viewer %q attached: %w", leader.name, id, ErrNoFanout)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// addFollower registers f to receive r's frame metrics: the history recorded
// so far is replayed first, then live frames are relayed as r observes them.
// The replay nests f.observe (follower's mu) under r.mu — lock order is
// always leader before follower, and a follower never takes its leader's mu.
func (r *managedRun) addFollower(f *managedRun) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fm := range r.metrics {
		f.observe(fm)
	}
	r.relays = append(r.relays, f)
}

// removeFollower unregisters f from r's metric relay.
func (r *managedRun) removeFollower(f *managedRun) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, g := range r.relays {
		if g == f {
			r.relays = append(r.relays[:i], r.relays[i+1:]...)
			return
		}
	}
}

// setPort publishes the run's live viewer port and wakes every waiter
// blocked in portState.
func (r *managedRun) setPort(p viewerPort) {
	r.mu.Lock()
	r.port = p
	close(r.portWait)
	r.portWait = make(chan struct{})
	r.mu.Unlock()
}

// clearPort retracts the viewer port when a placement ends (the next attempt
// publishes a new one). Waiters keep waiting; they only care about a port
// appearing.
func (r *managedRun) clearPort() {
	r.mu.Lock()
	r.port = nil
	r.mu.Unlock()
}

// portState snapshots the run's viewer port and the channel that closes next
// time the port changes.
func (r *managedRun) portState() (viewerPort, <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.port, r.portWait
}

// viewerPortOf resolves the port viewer operations on run r should use: the
// run's own, or — while r is live as a coalesced follower — its leader's.
func (m *Manager) viewerPortOf(r *managedRun) (viewerPort, error) {
	port, _ := r.portState()
	if port != nil {
		return port, nil
	}
	// A live follower proxies viewer operations to its leader.
	if leader := m.leaderOf(r); leader != nil {
		if port, _ = leader.portState(); port != nil {
			return port, nil
		}
	}
	return nil, fmt.Errorf("run %q: %w", r.name, ErrNoFanout)
}

// leaderOf returns the live coalesce leader run r currently follows, nil
// when r is not following anyone.
func (m *Manager) leaderOf(r *managedRun) *managedRun {
	if r.renderKey == "" {
		return nil
	}
	m.mu.Lock()
	leader := m.coalesce[r.renderKey]
	m.mu.Unlock()
	if leader == nil || leader == r {
		return nil
	}
	// Only a run actually riding the leader proxies to it.
	r.mu.Lock()
	following := r.state == StateRunning && r.workerID == "coalesced:"+leader.name
	r.mu.Unlock()
	if !following {
		return nil
	}
	return leader
}

// viewerCtx bounds one viewer control operation against the manager's
// lifetime: remote attaches travel the dispatch connection and must not
// outlive Close.
func (m *Manager) viewerCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(m.baseCtx, viewerOpTimeout)
}
