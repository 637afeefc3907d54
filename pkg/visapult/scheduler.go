package visapult

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"visapult/internal/backend/framecache"
	"visapult/internal/wire"
)

// The multi-backend scheduler: Manager places spec-described runs onto a
// registry of remote visapult-backend workers (the paper's distributed
// back-end pool) instead of executing them in-process. Placement picks the
// least-loaded live worker with a free capacity slot; a run whose worker dies
// or errors is re-queued and retried on another worker up to a bounded
// attempt count, with the full placement history recorded in
// RunStatus.Attempts. With no live workers the scheduler falls back to local
// in-process execution, so a worker-less Manager behaves exactly as before.

// Scheduler error conditions.
var (
	// ErrUnknownWorker: the worker ID does not exist.
	ErrUnknownWorker = errors.New("visapult: unknown worker")
	// ErrWorkerExists: RegisterWorker was called with an address already
	// registered and not dead.
	ErrWorkerExists = errors.New("visapult: worker already registered")
)

// defaultMaxAttempts bounds how many placements one run may consume before
// it is failed for good.
const defaultMaxAttempts = 3

// WorkerState is the lifecycle state of a registered worker.
type WorkerState int

const (
	// WorkerLive: healthy, eligible for placements.
	WorkerLive WorkerState = iota
	// WorkerDraining: finishes its active runs but receives no new ones.
	WorkerDraining
	// WorkerDead: a dispatch hit a transport-level failure; the worker
	// receives no placements until re-registered.
	WorkerDead
)

// String implements fmt.Stringer.
func (s WorkerState) String() string {
	switch s {
	case WorkerLive:
		return "live"
	case WorkerDraining:
		return "draining"
	case WorkerDead:
		return "dead"
	default:
		return fmt.Sprintf("workerstate(%d)", int(s))
	}
}

// WorkerStatus is a point-in-time snapshot of one registered worker.
type WorkerStatus struct {
	ID       string
	Addr     string
	Capacity int
	// Active is the number of runs currently placed on the worker.
	Active     int
	State      WorkerState
	Registered time.Time
	// Failures counts transport-level dispatch failures; LastError is the
	// most recent one.
	Failures  int
	LastError string
}

// poolWorker is the pool-side record of one worker.
type poolWorker struct {
	id         string
	addr       string
	capacity   int
	active     int
	state      WorkerState
	registered time.Time
	failures   int
	lastErr    string
}

func (w *poolWorker) status() WorkerStatus {
	return WorkerStatus{
		ID: w.id, Addr: w.addr, Capacity: w.capacity, Active: w.active,
		State: w.state, Registered: w.registered,
		Failures: w.failures, LastError: w.lastErr,
	}
}

// workerPool is the registry the placement loop draws from. All methods are
// safe for concurrent use; waiters blocked in acquire are woken whenever
// capacity may have appeared (registration, slot release, death, removal).
type workerPool struct {
	mu      sync.Mutex
	workers map[string]*poolWorker // guarded by mu
	// order preserves registration order for deterministic tie-breaks.
	// guarded by mu
	order  []string
	nextID int // guarded by mu
	// wait is the broadcast channel capacity waiters block on; replaced
	// (closed and remade) on every wake.
	// guarded by mu
	wait chan struct{}
}

func newWorkerPool() *workerPool {
	return &workerPool{
		workers: make(map[string]*poolWorker),
		nextID:  1,
		wait:    make(chan struct{}),
	}
}

// notifyLocked wakes every acquire waiter to re-evaluate the pool.
func (p *workerPool) notifyLocked() {
	close(p.wait)
	p.wait = make(chan struct{})
}

// add registers a worker and wakes waiters; duplicate live addresses are
// rejected so one flaky operator script cannot double-book a worker.
func (p *workerPool) add(addr string, capacity int) (WorkerStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range p.order {
		if w := p.workers[id]; w.addr == addr && w.state != WorkerDead {
			return WorkerStatus{}, fmt.Errorf("worker %s (%s): %w", w.id, addr, ErrWorkerExists)
		}
	}
	// Re-registering is the documented recovery path for a dead worker:
	// prune its old record so a flapping worker does not grow the registry
	// without bound.
	for i := 0; i < len(p.order); {
		w := p.workers[p.order[i]]
		if w.addr == addr && w.state == WorkerDead {
			delete(p.workers, w.id)
			p.order = append(p.order[:i], p.order[i+1:]...)
			continue
		}
		i++
	}
	w := &poolWorker{
		id:         fmt.Sprintf("w%d", p.nextID),
		addr:       addr,
		capacity:   capacity,
		state:      WorkerLive,
		registered: time.Now(),
	}
	p.nextID++
	p.workers[w.id] = w
	p.order = append(p.order, w.id)
	p.notifyLocked()
	return w.status(), nil
}

// list snapshots every worker in registration order.
func (p *workerPool) list() []WorkerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerStatus, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.workers[id].status())
	}
	return out
}

// drain stops new placements on the worker; its active runs finish.
func (p *workerPool) drain(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok {
		return fmt.Errorf("worker %q: %w", id, ErrUnknownWorker)
	}
	if w.state == WorkerLive {
		w.state = WorkerDraining
		// Wake queued acquirers: with the last live worker gone they must
		// re-evaluate and take the local-fallback path now, not whenever the
		// next unrelated pool event fires.
		p.notifyLocked()
	}
	return nil
}

// remove forgets the worker. Dispatches already in flight on it complete (or
// fail) over their own connections.
func (p *workerPool) remove(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.workers[id]; !ok {
		return fmt.Errorf("worker %q: %w", id, ErrUnknownWorker)
	}
	delete(p.workers, id)
	for i, oid := range p.order {
		if oid == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.notifyLocked()
	return nil
}

// markDead records a transport-level dispatch failure: the worker stops
// receiving placements until it is re-registered.
func (p *workerPool) markDead(w *poolWorker, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.state = WorkerDead
	w.failures++
	if err != nil {
		w.lastErr = err.Error()
	}
	p.notifyLocked()
}

// release returns a worker's capacity slot and wakes waiters.
func (p *workerPool) release(w *poolWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w.active > 0 {
		w.active--
	}
	p.notifyLocked()
}

// clampCapacity lowers the pool's capacity belief for a worker that just
// rejected a dispatch as busy: the worker's own gate is the ground truth, so
// the registered capacity overstated it (or an external party shares the
// worker). Capacity never drops below one, so the worker stays placeable
// once its real slots free up.
func (p *workerPool) clampCapacity(w *poolWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := max(1, w.active); c < w.capacity {
		w.capacity = c
	}
}

// pickLocked chooses the least-loaded live worker with a free slot — lowest
// active/capacity ratio, ties broken by registration order — or nil. The
// avoid worker (the one that just failed the caller's run) is chosen only
// when it is the sole candidate, so a retry lands elsewhere whenever
// anywhere else exists.
func (p *workerPool) pickLocked(avoid string) *poolWorker {
	var best, avoided *poolWorker
	for _, id := range p.order {
		w := p.workers[id]
		if w.state != WorkerLive || w.active >= w.capacity {
			continue
		}
		if w.id == avoid {
			avoided = w
			continue
		}
		// w is less loaded than best iff w.active/w.capacity <
		// best.active/best.capacity, cross-multiplied to stay integral.
		if best == nil || w.active*best.capacity < best.active*w.capacity {
			best = w
		}
	}
	if best == nil {
		return avoided
	}
	return best
}

// liveLocked counts workers eligible for placements now or soon.
func (p *workerPool) liveLocked() int {
	n := 0
	for _, w := range p.workers {
		if w.state == WorkerLive {
			n++
		}
	}
	return n
}

// acquire blocks until it can claim a slot on the least-loaded live worker,
// preferring any worker other than avoid (pass "" for no preference). It
// returns (nil, nil) when no live workers exist at all — the caller's cue
// to fall back to local execution — and ctx's error when cancelled while
// queued. Live-but-full pools make it wait: exhausted capacity means the run
// queues for a slot rather than silently spilling onto the local machine.
func (p *workerPool) acquire(ctx context.Context, avoid string) (*poolWorker, error) {
	for {
		p.mu.Lock()
		if w := p.pickLocked(avoid); w != nil {
			w.active++
			p.mu.Unlock()
			return w, nil
		}
		if p.liveLocked() == 0 {
			p.mu.Unlock()
			return nil, nil
		}
		wait := p.wait
		p.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// RegisterWorker adds a remote visapult-backend worker (started with
// -serve-control) to the manager's pool after verifying it answers the
// control protocol. capacity <= 0 adopts the capacity the worker advertises.
// The returned status carries the assigned worker ID used by DrainWorker and
// RemoveWorker.
func (m *Manager) RegisterWorker(ctx context.Context, addr string, capacity int) (WorkerStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if addr == "" {
		return WorkerStatus{}, errors.New("visapult: worker address must not be empty")
	}
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return WorkerStatus{}, ErrManagerClosed
	}
	hello, err := pingWorker(ctx, addr)
	if err != nil {
		return WorkerStatus{}, fmt.Errorf("visapult: worker %s unreachable: %w", addr, err)
	}
	if capacity <= 0 {
		capacity = hello.Capacity
	}
	if capacity <= 0 {
		capacity = 1
	}
	return m.pool.add(addr, capacity)
}

// Workers snapshots the registered workers in registration order.
func (m *Manager) Workers() []WorkerStatus { return m.pool.list() }

// DrainWorker stops new placements on the worker; runs already placed on it
// finish normally. Draining a drained or dead worker is a no-op.
func (m *Manager) DrainWorker(id string) error { return m.pool.drain(id) }

// RemoveWorker forgets the worker. Runs already dispatched to it keep their
// connections and finish (or fail and re-queue) as usual.
func (m *Manager) RemoveWorker(id string) error { return m.pool.remove(id) }

// SetMaxAttempts bounds how many placements (local or remote) one run may
// consume before it is failed; n <= 0 restores the default of 3.
func (m *Manager) SetMaxAttempts(n int) {
	if n <= 0 {
		n = defaultMaxAttempts
	}
	m.mu.Lock()
	m.maxAttempts = n
	m.mu.Unlock()
}

func (m *Manager) attemptBudget() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxAttempts
}

// slabSinkFor builds the receiver that absorbs a worker's streamed slab
// payloads into the manager's own frame cache, so a run rendered remotely
// seeds the same replay cache a local run would — the manager's next local
// execution (fallback or otherwise) of the same content replays textures it
// never rendered. Returns nil (no slab delivery requested) when caching is
// disabled or the spec has no cache identity.
func (m *Manager) slabSinkFor(spec *RunSpec) slabSink {
	cache := m.frameCacheHandle()
	if cache == nil {
		return nil
	}
	dataset, tf := spec.cacheIdentity()
	if dataset == "" {
		return nil
	}
	return func(light *wire.LightPayload, heavy *wire.HeavyPayload) {
		if light.SlabCount <= 0 {
			return
		}
		key := framecache.Key{
			Dataset:  framecache.DatasetKey(dataset, int(light.Axis), light.SlabCount),
			Timestep: light.Frame,
			TF:       tf,
		}
		// The decode path copied these payloads out of the read buffer and
		// hands them to no one else: ownership transfers to the cache.
		cache.PutSlabOwned(key, light.PE, light.SlabCount, framecache.Slab{Light: light, Heavy: heavy})
	}
}

// executeRemote is the placement loop of one spec-described run: claim the
// least-loaded live worker, dispatch, and on failure re-queue and try
// another — up to the manager's attempt budget. With no live workers the run
// executes locally, so a pool that empties out degrades to the in-process
// Manager instead of wedging.
func (m *Manager) executeRemote(r *managedRun, ctx context.Context, spec RunSpec) {
	// avoid is the worker that most recently failed this run: the next
	// placement prefers anywhere else, so a deterministic per-worker problem
	// doesn't burn the whole attempt budget in one place.
	var avoid string
	// busyBackoff grows exponentially across consecutive busy rejections
	// (reset whenever a dispatch is actually accepted), bounding the dial
	// rate against an externally shared worker that stays full.
	busyBackoff := 50 * time.Millisecond
	for {
		w, err := m.pool.acquire(ctx, avoid)
		if err != nil { // cancelled while queued for a slot
			r.finish(nil, err)
			return
		}
		if w == nil { // no live workers: local fallback
			m.executeLocal(r, ctx)
			return
		}
		if !r.beginAttempt(w.id, w.addr) { // cancelled in the meantime
			m.pool.release(w)
			return
		}
		// Publish the live dispatch handle as the run's viewer port so
		// attach/detach (and coalesced followers' viewers) reach the remote
		// fan-out; retract it when this placement ends either way.
		res, err := dispatchRun(ctx, w.addr, r.name, spec, r.observe,
			func(h *dispatchHandle) { r.setPort(remotePort{h}) },
			m.slabSinkFor(&spec))
		r.clearPort()
		m.pool.release(w)
		if err == nil {
			r.finish(res, nil)
			return
		}
		if ctx.Err() != nil {
			r.finish(nil, ctx.Err())
			return
		}
		if errors.Is(err, errWorkerBusy) {
			// The worker rejected the placement before running anything: a
			// scheduling miss, not a run failure. Correct the pool's
			// capacity belief, drop the phantom attempt, and re-queue — the
			// run must wait for real capacity, not burn its attempt budget.
			// The growing pause avoids hammering an externally shared
			// worker that keeps answering busy.
			m.pool.clampCapacity(w)
			avoid = w.id
			if !r.dropAttempt() {
				return
			}
			select {
			case <-time.After(busyBackoff):
			case <-ctx.Done():
				r.finish(nil, ctx.Err())
				return
			}
			busyBackoff = min(2*busyBackoff, 2*time.Second)
			continue
		}
		busyBackoff = 50 * time.Millisecond
		// A dropped connection condemns the worker; an error reported over a
		// healthy connection condemns only this attempt.
		var runErr *remoteRunError
		if !errors.As(err, &runErr) {
			m.pool.markDead(w, err)
		}
		avoid = w.id
		if r.attemptCount() >= m.attemptBudget() {
			r.finish(nil, fmt.Errorf("visapult: run %q failed after %d attempts: %w", r.name, r.attemptCount(), err))
			return
		}
		if !r.requeue(err.Error()) {
			return
		}
	}
}
