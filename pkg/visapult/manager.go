package visapult

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"visapult/internal/backend/framecache"
	"visapult/internal/core"
)

// FrameCacheStats is the frame cache's counter snapshot; see
// Manager.FrameCacheStats.
type FrameCacheStats = framecache.Stats

// RunState is the lifecycle state of a managed run.
type RunState int

// Managed run states. Transitions: Pending -> Queued -> Running ->
// {Done, Failed, Canceled}; Cancel short-circuits Pending/Queued runs
// straight to Canceled.
const (
	// StatePending: created, not yet started.
	StatePending RunState = iota
	// StateQueued: started, waiting for a worker-pool slot.
	StateQueued
	// StateRunning: executing on a worker.
	StateRunning
	// StateDone: completed successfully; the Result is available.
	StateDone
	// StateFailed: completed with an error.
	StateFailed
	// StateCanceled: cancelled before or during execution.
	StateCanceled
)

// String implements fmt.Stringer.
func (s RunState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// RunStatus is a point-in-time snapshot of one managed run.
type RunStatus struct {
	Name  string
	State RunState
	// Error is the failure message (empty unless State is Failed or
	// Canceled).
	Error string
	// FramesSent counts (PE, timestep) frame records emitted so far by the
	// current placement — a live progress indicator while the run executes.
	FramesSent int
	// Created, Started and Finished are the lifecycle timestamps; Started
	// and Finished are zero until the run reaches the corresponding state.
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// Worker is the ID of the worker currently (or finally) executing the
	// run — "local" for in-process execution, empty before placement.
	Worker string
	// Attempts is the placement history: one entry per time the scheduler
	// put the run somewhere, including the re-queues after worker failures.
	Attempts []RunAttempt
	// Viewers is the per-viewer delivery snapshot of a fan-out run (one
	// created with a Viewers >= 1 spec or WithViewers), in attach order:
	// frames sent and dropped, queue depth, bytes. Empty for single-viewer
	// runs and for runs placed on remote workers (the deliveries stay with
	// the worker's viewers).
	Viewers []ViewerDelivery
}

// RunAttempt records one placement of a run on a worker (or locally).
type RunAttempt struct {
	// Worker is the pool ID of the worker, or "local".
	Worker string
	// Addr is the worker's control address; empty for local execution.
	Addr    string
	Started time.Time
	// Ended is zero while the attempt is still executing.
	Ended time.Time
	// Error is why the attempt ended, empty on success.
	Error string
}

// Manager error conditions, distinguishable with errors.Is so callers (the
// visapultd HTTP layer, for one) can map them to responses without parsing
// messages.
var (
	// ErrUnknownRun: the named run does not exist.
	ErrUnknownRun = errors.New("visapult: unknown run")
	// ErrRunExists: Create was called with a name already in use.
	ErrRunExists = errors.New("visapult: run already exists")
	// ErrManagerClosed: the manager is shut down.
	ErrManagerClosed = errors.New("visapult: manager is closed")
	// ErrRunNotPending: Start was called on a run past the pending state.
	ErrRunNotPending = errors.New("visapult: run is not pending")
	// ErrRunActive: Remove was called on a run that has not finished.
	ErrRunActive = errors.New("visapult: run is still active")
	// ErrNoResult: Result was called on a run not in StateDone.
	ErrNoResult = errors.New("visapult: run has no result")
	// ErrNoFanout: a viewer operation was attempted on a run without a live
	// fan-out stage — it was not created with Viewers >= 1, or its pipeline
	// has not started executing yet. Runs placed on remote workers are
	// reachable: their viewer operations travel the dispatch connection.
	ErrNoFanout = errors.New("visapult: run has no viewer fan-out")
)

// Manager owns a set of named pipeline runs and executes them on a bounded
// local worker pool — or, once remote workers are registered with
// RegisterWorker, schedules spec-described runs across them with
// failure-aware re-queueing. All methods are safe for concurrent use.
type Manager struct {
	sem  chan struct{}
	pool *workerPool

	mu          sync.Mutex
	runs        map[string]*managedRun // guarded by mu
	closed      bool                   // guarded by mu
	maxAttempts int                    // guarded by mu
	// coalesce maps each render hash to the run currently leading it: the
	// run identical submissions ride instead of rendering again.
	coalesce map[string]*managedRun // guarded by mu
	// frameCache is the shared slab-texture cache spec-described local runs
	// render into and replay from; nil until SetFrameCacheCapacity enables it.
	// Runs placed on workers seed it remotely through slab delivery.
	frameCache *framecache.Cache // guarded by mu
	// renderWorkers is the default render-pool size applied to locally
	// executed runs that do not set their own; 0 leaves the facade default
	// (GOMAXPROCS). guarded by mu
	renderWorkers int

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
}

// managedRun is the manager-side record of one run.
type managedRun struct {
	name string
	opts []Option
	// spec is non-nil for runs registered through CreateSpec; only those are
	// eligible for remote placement (options are closures and cannot cross
	// the wire).
	spec *RunSpec
	// renderKey is the spec's canonical render hash (empty for option-built
	// runs): submissions sharing it coalesce onto one live render.
	renderKey string

	mu       sync.Mutex
	state    RunState           // guarded by mu
	err      error              // guarded by mu
	result   *Result            // guarded by mu
	metrics  []FrameMetric      // guarded by mu
	subs     map[int]*metricSub // guarded by mu
	nextSub  int                // guarded by mu
	created  time.Time
	startedT time.Time // guarded by mu
	finished time.Time // guarded by mu
	cancel   context.CancelFunc
	done     chan struct{}
	workerID string
	attempts []RunAttempt
	// fanout is the live fan-out control of a WithViewers run executing
	// locally; nil otherwise. It stays readable after the run finishes.
	fanout *core.FanoutControl
	// port is the run's live viewer attach/detach channel: a localPort over
	// fanout for in-process execution, a remotePort over the dispatch
	// connection for runs placed on a worker; nil while no placement is live.
	port viewerPort // guarded by mu
	// portWait is closed (and remade) whenever port is published, waking
	// coalesced followers waiting to attach their viewers.
	portWait chan struct{} // guarded by mu
	// relays are the coalesced follower runs live frame metrics are copied
	// to. Lock order: this run's mu strictly before any follower's.
	relays []*managedRun // guarded by mu
}

// NewManager builds a manager executing at most workers runs concurrently on
// the local machine; workers <= 0 selects 4 (the paper's first-light PE
// count, a sane default for pipelines that are themselves parallel). Remote
// capacity is added separately with RegisterWorker.
func NewManager(workers int) *Manager {
	if workers <= 0 {
		workers = 4
	}
	// The manager owns this root: every run derives from baseCtx and Close
	// cancels it, which is the manager's whole lifecycle contract.
	ctx, cancel := context.WithCancel(context.Background()) //vislint:ignore ctxbackground the manager is a lifecycle root; Close cancels everything derived from it
	return &Manager{
		sem:         make(chan struct{}, workers),
		pool:        newWorkerPool(),
		runs:        make(map[string]*managedRun),
		coalesce:    make(map[string]*managedRun),
		maxAttempts: defaultMaxAttempts,
		baseCtx:     ctx,
		cancelAll:   cancel,
	}
}

// SetFrameCacheCapacity (re)configures the manager's content-addressed
// slab-texture cache to the given byte bound; bytes <= 0 disables caching.
// The cache is shared by every spec-described run the manager executes
// locally: a replay of an already-rendered spec is served finished frames
// without touching the data source or the raycaster. Reconfiguring replaces
// the cache, so previously cached frames are dropped.
func (m *Manager) SetFrameCacheCapacity(bytes int64) {
	m.mu.Lock()
	m.frameCache = framecache.New(bytes)
	m.mu.Unlock()
}

// SetDefaultRenderWorkers sets the render-pool size applied to every run the
// manager executes locally that does not carry its own WithRenderWorkers /
// RunSpec.RenderWorkers; n <= 0 restores the facade default (GOMAXPROCS).
// Worker counts never change pixels, so this affects latency only.
func (m *Manager) SetDefaultRenderWorkers(n int) {
	if n < 0 {
		n = 0
	}
	m.mu.Lock()
	m.renderWorkers = n
	m.mu.Unlock()
}

// defaultRenderWorkers reads the manager-wide render-pool default.
func (m *Manager) defaultRenderWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.renderWorkers
}

// FrameCacheStats snapshots the frame cache's hit/miss/eviction counters and
// residency. All zeros when the cache is disabled.
func (m *Manager) FrameCacheStats() FrameCacheStats {
	m.mu.Lock()
	c := m.frameCache
	m.mu.Unlock()
	return c.Stats()
}

// FlushFrameCache drops every cached frame, keeping the counters and the
// configured capacity.
func (m *Manager) FlushFrameCache() {
	m.mu.Lock()
	c := m.frameCache
	m.mu.Unlock()
	c.Clear()
}

// frameCacheHandle returns the live cache (nil when disabled).
func (m *Manager) frameCacheHandle() *framecache.Cache {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frameCache
}

// Create registers a new named run with the given pipeline options. The
// options are validated immediately; the run starts executing only when
// Start is called. Option-built runs always execute locally — use CreateSpec
// for runs the scheduler may place on remote workers.
func (m *Manager) Create(name string, opts ...Option) error {
	return m.create(name, opts, nil)
}

// CreateSpec registers a new named run from a serializable RunSpec. Unlike
// Create, spec-described runs are eligible for placement on the remote
// workers registered with RegisterWorker; with none live they execute
// locally, exactly like Create.
func (m *Manager) CreateSpec(name string, spec RunSpec) error {
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	return m.create(name, opts, &spec)
}

func (m *Manager) create(name string, opts []Option, spec *RunSpec) error {
	if name == "" {
		return errors.New("visapult: run name must not be empty")
	}
	// Validate eagerly so a bad spec fails at Create, not mid-queue.
	if _, err := New(opts...); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrManagerClosed
	}
	if _, ok := m.runs[name]; ok {
		return fmt.Errorf("run %q: %w", name, ErrRunExists)
	}
	r := &managedRun{
		name:     name,
		opts:     opts,
		spec:     spec,
		state:    StatePending,
		subs:     make(map[int]*metricSub),
		created:  time.Now(),
		done:     make(chan struct{}),
		portWait: make(chan struct{}),
	}
	if spec != nil {
		r.renderKey = spec.RenderHash()
	}
	m.runs[name] = r
	return nil
}

// get returns the named run or an error.
func (m *Manager) get(name string) (*managedRun, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[name]
	if !ok {
		return nil, fmt.Errorf("run %q: %w", name, ErrUnknownRun)
	}
	return r, nil
}

// Start queues the named run for execution. It returns immediately; the run
// executes as soon as a worker-pool slot frees up.
//
// Lock order is m.mu strictly before r.mu, matching every other method, and
// the closed-check and wg.Add form one atomic step — otherwise Start could
// pass the check, Close could run to completion, and the worker goroutine
// would outlive Close (tripping the WaitGroup's add-during-wait detector).
func (m *Manager) Start(name string) error {
	m.mu.Lock()
	r, ok := m.runs[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("run %q: %w", name, ErrUnknownRun)
	}
	if m.closed {
		m.mu.Unlock()
		return ErrManagerClosed
	}
	m.wg.Add(1)
	m.mu.Unlock()

	r.mu.Lock()
	if r.state != StatePending {
		st := r.state
		r.mu.Unlock()
		m.wg.Done() // the reservation above goes unused
		return fmt.Errorf("visapult: run %q is %s: %w", name, st, ErrRunNotPending)
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	r.state = StateQueued
	r.cancel = cancel
	r.mu.Unlock()

	go m.execute(r, ctx)
	return nil
}

// execute routes a queued run to the coalescing scheduler (spec-described
// runs) or the local worker pool (option-built runs).
func (m *Manager) execute(r *managedRun, ctx context.Context) {
	defer m.wg.Done()
	if r.spec != nil {
		m.executeSpec(r, ctx)
		return
	}
	m.executeLocal(r, ctx)
}

// executeLocal acquires a local pool slot and runs the pipeline in-process,
// moving the run through its lifecycle states.
func (m *Manager) executeLocal(r *managedRun, ctx context.Context) {
	// Wait for a worker slot — or for cancellation while still queued.
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-ctx.Done():
		r.finish(nil, ctx.Err())
		return
	}

	if !r.beginAttempt("local", "") { // cancelled while waiting for the slot
		return
	}

	// The manager-wide render-worker default is prepended so a run's own
	// WithRenderWorkers (later in the slice) wins.
	var opts []Option
	if def := m.defaultRenderWorkers(); def > 0 {
		opts = append(opts, WithRenderWorkers(def))
	}
	opts = append(append(opts, r.opts...),
		WithFrameHook(r.observe), withFanoutControl(r.setFanout))
	if r.spec != nil {
		// Spec-described runs have a content identity, so they render into —
		// and replay from — the manager's shared frame cache.
		if cache := m.frameCacheHandle(); cache != nil {
			dataset, tf := r.spec.cacheIdentity()
			opts = append(opts, withFrameCache(cache, dataset, tf))
		}
	}
	p, err := New(opts...)
	if err != nil { // cannot happen: validated at Create
		r.finish(nil, err)
		return
	}
	res, err := p.Run(ctx)
	if err == nil {
		r.finish(res, nil)
		return
	}
	// Prefer the cancellation cause when the context was cancelled: the
	// pipeline may surface it as a transport error instead of ctx.Err().
	if ctxErr := ctx.Err(); ctxErr != nil {
		err = ctxErr
	}
	r.finish(nil, err)
}

// beginAttempt moves a queued run to Running on the given worker ("local"
// for in-process execution) and opens an attempt record. It reports false —
// placement must not proceed — if the run left the queued state meanwhile.
func (r *managedRun) beginAttempt(workerID, addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateQueued {
		return false
	}
	r.state = StateRunning
	if r.startedT.IsZero() {
		r.startedT = time.Now()
	}
	r.workerID = workerID
	r.attempts = append(r.attempts, RunAttempt{
		Worker: workerID, Addr: addr, Started: time.Now(),
	})
	return true
}

// requeue returns a running run to the queue after a failed attempt, closing
// the attempt record with the failure. It reports false if the run reached a
// terminal state meanwhile.
func (r *managedRun) requeue(errMsg string) bool {
	return r.backToQueue(errMsg, true)
}

// dropAttempt returns a running run to the queue and erases its open
// attempt record — for placements the worker rejected before executing
// anything (busy), which are scheduling misses rather than run history. It
// reports false if the run reached a terminal state meanwhile.
func (r *managedRun) dropAttempt() bool {
	return r.backToQueue("", false)
}

// backToQueue moves a running run back to the queue, disposing of the open
// attempt record (closed with errMsg, or erased entirely) and resetting the
// per-placement frame metrics — the next attempt re-streams the run from
// scratch.
func (r *managedRun) backToQueue(errMsg string, keepAttempt bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if keepAttempt {
		r.closeAttemptLocked(time.Now(), errMsg)
	} else if n := len(r.attempts); n > 0 && r.attempts[n-1].Ended.IsZero() {
		r.attempts = r.attempts[:n-1]
	}
	if r.state != StateRunning {
		return false
	}
	r.state = StateQueued
	r.workerID = ""
	r.metrics = nil
	return true
}

// attemptCount returns how many placements the run has consumed.
func (r *managedRun) attemptCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.attempts)
}

// closeAttemptLocked stamps the open attempt record, if any, with r.mu held.
func (r *managedRun) closeAttemptLocked(when time.Time, errMsg string) {
	if n := len(r.attempts); n > 0 && r.attempts[n-1].Ended.IsZero() {
		r.attempts[n-1].Ended = when
		r.attempts[n-1].Error = errMsg
	}
}

// setFanout records the fan-out control of a locally executing WithViewers
// run and publishes it as the run's viewer port, waking coalesced followers
// waiting to attach. A re-queued run replaces the handle of its dead attempt.
func (r *managedRun) setFanout(fc *core.FanoutControl) {
	r.mu.Lock()
	r.fanout = fc
	r.port = localPort{fc}
	close(r.portWait)
	r.portWait = make(chan struct{})
	r.mu.Unlock()
}

// fanoutControl returns the run's live fan-out control, or ErrNoFanout.
func (r *managedRun) fanoutControl() (*core.FanoutControl, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fanout == nil {
		return nil, fmt.Errorf("run %q: %w", r.name, ErrNoFanout)
	}
	return r.fanout, nil
}

// observe records one frame metric, fans it out to subscribers, and relays
// it to coalesced followers (lock order: this run's mu, then each
// follower's inside its own observe).
func (r *managedRun) observe(fm FrameMetric) {
	r.mu.Lock()
	r.metrics = append(r.metrics, fm)
	for _, sub := range r.subs {
		select {
		case sub.ch <- fm:
		default:
			// Slow subscriber: drop rather than stall the pipeline, but keep
			// the tally so the SSE layer can surface the backpressure.
			sub.dropped.Add(1)
		}
	}
	relays := append([]*managedRun(nil), r.relays...)
	r.mu.Unlock()
	for _, f := range relays {
		f.observe(fm)
	}
}

// finish moves the run to its terminal state and closes subscriptions.
func (r *managedRun) finish(res *Result, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finishLocked(res, err)
}

// finishLocked is finish with r.mu already held.
func (r *managedRun) finishLocked(res *Result, err error) {
	if r.state.Terminal() {
		return
	}
	// Release the run's child context: without this every completed run
	// stays registered on the manager's base context for the daemon's
	// lifetime.
	if r.cancel != nil {
		r.cancel()
	}
	r.finished = time.Now()
	var errMsg string
	if err != nil {
		errMsg = err.Error()
	}
	r.closeAttemptLocked(r.finished, errMsg)
	switch {
	case err == nil:
		r.state = StateDone
		r.result = res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.state = StateCanceled
		r.err = err
	default:
		r.state = StateFailed
		r.err = err
	}
	for id, sub := range r.subs {
		close(sub.ch)
		delete(r.subs, id)
	}
	close(r.done)
}

// Cancel stops the named run. A pending run moves straight to Canceled; a
// queued or running run is cancelled through its context and reaches
// Canceled when the pipeline unwinds. Cancelling a finished run is a no-op.
func (m *Manager) Cancel(name string) error {
	r, err := m.get(name)
	if err != nil {
		return err
	}
	// Decide and act under one critical section: releasing r.mu between the
	// state check and the action would let a concurrent Start promote a
	// Pending run to Running after we chose the pending path, leaving a
	// "canceled" run whose pipeline keeps executing.
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.state.Terminal():
		return nil
	case r.state == StatePending:
		r.finishLocked(nil, context.Canceled)
		return nil
	default:
		r.cancel()
		return nil
	}
}

// Wait blocks until the named run reaches a terminal state and returns its
// result (nil unless it finished in StateDone, in which case err is nil).
func (m *Manager) Wait(ctx context.Context, name string) (*Result, error) {
	r, err := m.get(name)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, r.err
}

// Status returns a snapshot of the named run.
func (m *Manager) Status(name string) (RunStatus, error) {
	r, err := m.get(name)
	if err != nil {
		return RunStatus{}, err
	}
	return r.status(), nil
}

func (r *managedRun) status() RunStatus {
	r.mu.Lock()
	fanout := r.fanout
	st := RunStatus{
		Name:       r.name,
		State:      r.state,
		FramesSent: len(r.metrics),
		Created:    r.created,
		Started:    r.startedT,
		Finished:   r.finished,
		Worker:     r.workerID,
		Attempts:   append([]RunAttempt(nil), r.attempts...),
	}
	if r.err != nil {
		st.Error = r.err.Error()
	}
	r.mu.Unlock()
	// Snapshot the deliveries outside r.mu: the fan-out has its own lock.
	if fanout != nil {
		st.Viewers = fanout.Viewers()
	}
	return st
}

// List returns a snapshot of every run, sorted by name.
func (m *Manager) List() []RunStatus {
	m.mu.Lock()
	runs := make([]*managedRun, 0, len(m.runs))
	for _, r := range m.runs {
		runs = append(runs, r)
	}
	m.mu.Unlock()
	out := make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i] = r.status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Metrics returns a copy of the per-frame metrics recorded so far for the
// named run.
func (m *Manager) Metrics(name string) ([]FrameMetric, error) {
	r, err := m.get(name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]FrameMetric(nil), r.metrics...), nil
}

// metricSub is one live frame-metric subscription: its bounded channel plus
// the count of frames dropped because the subscriber fell behind.
type metricSub struct {
	ch      chan FrameMetric
	dropped atomic.Int64
}

// MetricSubscription is a handle on one live frame-metric subscription. C is
// closed when the run finishes; Dropped reports how many frames the bounded
// buffer discarded because this subscriber fell behind — the backpressure
// signal the SSE layer surfaces to streaming clients.
type MetricSubscription struct {
	C      <-chan FrameMetric
	sub    *metricSub
	cancel func()
}

// Dropped returns the frames discarded for this subscriber so far.
func (s *MetricSubscription) Dropped() int64 {
	if s.sub == nil {
		return 0
	}
	return s.sub.dropped.Load()
}

// Cancel releases the subscription. Safe to call more than once.
func (s *MetricSubscription) Cancel() { s.cancel() }

// Subscribe returns a channel of live frame metrics for the named run and a
// cancel function releasing the subscription. The channel is closed when the
// run finishes. A subscriber that falls behind misses frames rather than
// stalling the pipeline; pair Subscribe with Metrics for a complete record,
// or use SubscribeMetrics to observe the drop count as well.
func (m *Manager) Subscribe(name string) (<-chan FrameMetric, func(), error) {
	s, err := m.SubscribeMetrics(name)
	if err != nil {
		return nil, nil, err
	}
	return s.C, s.Cancel, nil
}

// SubscribeMetrics is Subscribe with drop accounting: the returned handle
// exposes how many frames the subscription's bounded buffer discarded.
func (m *Manager) SubscribeMetrics(name string) (*MetricSubscription, error) {
	r, err := m.get(name)
	if err != nil {
		return nil, err
	}
	sub := &metricSub{ch: make(chan FrameMetric, 64)}
	r.mu.Lock()
	if r.state.Terminal() {
		r.mu.Unlock()
		close(sub.ch)
		return &MetricSubscription{C: sub.ch, sub: sub, cancel: func() {}}, nil
	}
	id := r.nextSub
	r.nextSub++
	r.subs[id] = sub
	r.mu.Unlock()
	once := sync.Once{}
	cancel := func() {
		once.Do(func() {
			r.mu.Lock()
			if s, ok := r.subs[id]; ok {
				close(s.ch)
				delete(r.subs, id)
			}
			r.mu.Unlock()
		})
	}
	return &MetricSubscription{C: sub.ch, sub: sub, cancel: cancel}, nil
}

// AttachViewer adds a viewer named viewerID to an executing fan-out run (one
// created with Viewers >= 1). For local execution a fresh in-process viewer
// is built with the run's transport; for a run placed on a remote worker the
// attach travels the dispatch connection and the viewer is built worker-side.
// Either way it starts receiving at the next frame boundary. A run riding a
// coalesce leader proxies the attach to that leader's fan-out. Runs without a
// live fan-out — single-viewer runs, or runs not yet executing — report
// ErrNoFanout.
func (m *Manager) AttachViewer(name, viewerID string) error {
	r, err := m.get(name)
	if err != nil {
		return err
	}
	port, err := m.viewerPortOf(r)
	if err != nil {
		return err
	}
	ctx, cancel := m.viewerCtx()
	defer cancel()
	return port.attach(ctx, viewerID)
}

// DetachViewer removes a previously attached viewer from a fan-out run,
// tearing its transport down. Its delivery record remains visible in the
// run's status and final result. Works across the dispatch protocol for
// remotely placed runs, like AttachViewer.
func (m *Manager) DetachViewer(name, viewerID string) error {
	r, err := m.get(name)
	if err != nil {
		return err
	}
	port, err := m.viewerPortOf(r)
	if err != nil {
		return err
	}
	ctx, cancel := m.viewerCtx()
	defer cancel()
	return port.detach(ctx, viewerID)
}

// Viewers returns the per-viewer delivery snapshot of a fan-out run, in
// attach order (including viewers that already detached or failed). For a
// finished local run the final snapshot stays readable; for a remotely
// placed run the snapshot is fetched over the live dispatch connection.
func (m *Manager) Viewers(name string) ([]ViewerDelivery, error) {
	r, err := m.get(name)
	if err != nil {
		return nil, err
	}
	// A finished (or still-local) fan-out run answers from its control even
	// after the placement's port was retracted.
	if fc, err := r.fanoutControl(); err == nil {
		return fc.Viewers(), nil
	}
	port, err := m.viewerPortOf(r)
	if err != nil {
		return nil, err
	}
	ctx, cancel := m.viewerCtx()
	defer cancel()
	return port.viewers(ctx)
}

// Result returns the finished run's result; an error if the run is not in
// StateDone.
func (m *Manager) Result(name string) (*Result, error) {
	r, err := m.get(name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateDone {
		return nil, fmt.Errorf("run %q is %s: %w", name, r.state, ErrNoResult)
	}
	return r.result, nil
}

// Remove deletes a terminal run from the manager's table.
func (m *Manager) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[name]
	if !ok {
		return fmt.Errorf("run %q: %w", name, ErrUnknownRun)
	}
	r.mu.Lock()
	terminal := r.state.Terminal()
	r.mu.Unlock()
	if !terminal {
		return fmt.Errorf("run %q is %s, cancel it first: %w", name, r.status().State, ErrRunActive)
	}
	delete(m.runs, name)
	return nil
}

// Prune removes every terminal run that finished more than olderThan ago and
// returns how many were dropped — the retention policy keeping a long-lived
// daemon's run table (and its per-frame metric buffers) bounded. A negative
// or zero olderThan prunes every terminal run. Active runs are never touched,
// and neither are runs still serving someone: the standing coalesce target
// of its render hash (a new identical submission would ride it), a run whose
// frame metrics are still being relayed to coalesced followers, or a run
// whose fan-out still has viewers attached.
func (m *Manager) Prune(olderThan time.Duration) int {
	cutoff := time.Now().Add(-olderThan)
	m.mu.Lock()
	defer m.mu.Unlock()
	pruned := 0
	for name, r := range m.runs {
		if r.renderKey != "" && m.coalesce[r.renderKey] == r {
			continue
		}
		r.mu.Lock()
		expired := r.state.Terminal() && !r.finished.After(cutoff) && len(r.relays) == 0
		fanout := r.fanout
		r.mu.Unlock()
		if !expired {
			continue
		}
		if fanout != nil && fanout.Active() && hasAttachedViewer(fanout.Viewers()) {
			continue
		}
		delete(m.runs, name)
		pruned++
	}
	return pruned
}

// hasAttachedViewer reports whether any delivery record is still attached.
func hasAttachedViewer(deliveries []ViewerDelivery) bool {
	for _, d := range deliveries {
		if !d.Detached {
			return true
		}
	}
	return false
}

// Slots reports the local worker pool's occupancy: slots executing right now
// and the pool capacity. Remote capacity is reported per worker by Workers.
func (m *Manager) Slots() (used, capacity int) {
	return len(m.sem), cap(m.sem)
}

// Close cancels every run, waits for the workers to unwind, and marks the
// manager closed. Safe to call more than once.
//
// Runs that were created but never started have no execute goroutine to
// unwind them, so Close fails them directly with ErrManagerClosed — without
// this they would sit in StatePending forever and wedge any Wait on them.
// Queued and running runs (local or remotely placed) are cancelled through
// the shared base context and reach their terminal state before Close
// returns.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	runs := make([]*managedRun, 0, len(m.runs))
	for _, r := range m.runs {
		runs = append(runs, r)
	}
	m.mu.Unlock()
	m.cancelAll()
	for _, r := range runs {
		r.mu.Lock()
		pending := r.state == StatePending
		r.mu.Unlock()
		if pending {
			r.finish(nil, fmt.Errorf("run %q never started: %w", r.name, ErrManagerClosed))
		}
	}
	m.wg.Wait()
}
