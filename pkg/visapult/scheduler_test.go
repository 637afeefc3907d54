package visapult

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"visapult/internal/wire"
)

// startTestWorker stands up a real in-process dispatch worker (the same
// ServeWorker cmd/visapult-backend -serve-control runs) on an ephemeral port.
// The returned stop function kills it abruptly — listener and in-flight
// connections drop, exactly like a crashed worker process.
func startTestWorker(t *testing.T, capacity int) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := ServeWorker(ctx, ln, WorkerConfig{Capacity: capacity}); err != nil {
			t.Errorf("ServeWorker: %v", err)
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	// Wait until the worker answers: from here its goroutine count is
	// stable, so tests can take goroutine-leak baselines after this point.
	pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer pcancel()
	if _, err := pingWorker(pctx, ln.Addr().String()); err != nil {
		t.Fatalf("test worker never came up: %v", err)
	}
	return ln.Addr().String(), stop
}

// startFaultyWorker speaks the control protocol but reports a run failure
// for every dispatch — a healthy worker whose runs always break.
func startFaultyWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var magic [len(wire.DispatchMagic)]byte
				if _, err := io.ReadFull(c, magic[:]); err != nil {
					return
				}
				dc := wire.NewDispatchConn(c, c)
				t, _, err := dc.ReadFrame()
				if err != nil {
					return
				}
				if t == wire.DPing {
					hello, _ := json.Marshal(WorkerHello{Capacity: 1})
					dc.WriteFrame(wire.DPong, hello)
					return
				}
				de := wire.DispatchError{Msg: "synthetic run failure"}
				dc.WriteFrame(wire.DError, de.Append(nil))
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// quickSpec finishes in tens of milliseconds; slowSpec runs for a few
// hundred, long enough to kill its worker mid-flight.
func quickSpec() RunSpec {
	return RunSpec{
		Source: SourceSpec{Kind: "combustion", NX: 24, NY: 16, NZ: 16, Timesteps: 2, Seed: 42},
		PEs:    2, Mode: "overlapped",
	}
}

// slowSpec describes a run that stays in flight long enough for tests to
// interact with it mid-run (kill its worker, attach late viewers, observe
// coalescing). The generous volume and timestep count keep that window open:
// per-frame cost is dominated by data generation, so the window survives
// raycaster speedups.
func slowSpec() RunSpec {
	return RunSpec{
		Source: SourceSpec{Kind: "combustion", NX: 96, NY: 48, NZ: 48, Timesteps: 30, Seed: 42},
		PEs:    2, Mode: "overlapped",
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestWorkerRegistryLifecycle(t *testing.T) {
	m := NewManager(1)
	defer m.Close()

	addr, _ := startTestWorker(t, 3)

	if _, err := m.RegisterWorker(context.Background(), "", 0); err == nil {
		t.Error("expected error registering an empty address")
	}
	// Nothing listens on this port after the listener closes immediately.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := m.RegisterWorker(ctx, deadAddr, 0); err == nil {
		t.Error("expected error registering an unreachable worker")
	}

	ws, err := m.RegisterWorker(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Capacity != 3 {
		t.Errorf("capacity %d, want the worker's advertised 3", ws.Capacity)
	}
	if ws.State != WorkerLive {
		t.Errorf("fresh worker state %s, want live", ws.State)
	}
	if _, err := m.RegisterWorker(context.Background(), addr, 0); !errors.Is(err, ErrWorkerExists) {
		t.Errorf("duplicate registration: got %v, want ErrWorkerExists", err)
	}

	list := m.Workers()
	if len(list) != 1 || list[0].ID != ws.ID {
		t.Fatalf("worker list %+v, want just %s", list, ws.ID)
	}

	if err := m.DrainWorker(ws.ID); err != nil {
		t.Fatal(err)
	}
	if got := m.Workers()[0].State; got != WorkerDraining {
		t.Errorf("drained worker state %s, want draining", got)
	}
	if err := m.DrainWorker("w999"); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("draining unknown worker: got %v, want ErrUnknownWorker", err)
	}

	if err := m.RemoveWorker(ws.ID); err != nil {
		t.Fatal(err)
	}
	if len(m.Workers()) != 0 {
		t.Error("worker list not empty after remove")
	}
	if err := m.RemoveWorker(ws.ID); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("removing removed worker: got %v, want ErrUnknownWorker", err)
	}
}

// TestRemoteDispatchCompletes places a run on a real worker and checks the
// result, metrics, and placement record all round-trip the control protocol.
func TestRemoteDispatchCompletes(t *testing.T) {
	// The worker outlives the leak check (t.Cleanup), so it starts before
	// the baseline.
	addr, _ := startTestWorker(t, 2)
	before := runtime.NumGoroutine()
	m := NewManager(1)
	ws, err := m.RegisterWorker(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.CreateSpec("remote", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("remote"); err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(context.Background(), "remote")
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend.Frames != 2 || res.Backend.PEs != 2 {
		t.Errorf("remote result stats %+v unexpected", res.Backend)
	}
	if res.Viewer.FramesCompleted != 2 {
		t.Errorf("remote viewer completed %d frames, want 2", res.Viewer.FramesCompleted)
	}

	st, err := m.Status("remote")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("remote run state %s, want done", st.State)
	}
	if st.Worker != ws.ID {
		t.Errorf("run worker %q, want %s", st.Worker, ws.ID)
	}
	if len(st.Attempts) != 1 || st.Attempts[0].Worker != ws.ID || st.Attempts[0].Addr != addr {
		t.Errorf("attempts %+v, want one on %s@%s", st.Attempts, ws.ID, addr)
	}
	if st.Attempts[0].Ended.IsZero() || st.Attempts[0].Error != "" {
		t.Errorf("attempt not closed cleanly: %+v", st.Attempts[0])
	}
	if st.FramesSent != 2*2 { // PEs x timesteps, streamed over the protocol
		t.Errorf("framesSent %d, want 4", st.FramesSent)
	}
	if active := m.Workers()[0].Active; active != 0 {
		t.Errorf("worker still shows %d active runs", active)
	}

	m.Close()
	checkNoGoroutineLeak(t, before)
}

// TestKilledWorkerRequeuesOntoSecondWorker is the acceptance scenario: a run
// dispatched to a worker that dies mid-run is re-queued and completes on a
// second worker, with both placements in the attempt history.
func TestKilledWorkerRequeuesOntoSecondWorker(t *testing.T) {
	m := NewManager(1)
	defer m.Close()

	// Registration order breaks the 0/0 load tie, so the run lands on w1.
	addr1, stop1 := startTestWorker(t, 1)
	w1, err := m.RegisterWorker(context.Background(), addr1, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr2, _ := startTestWorker(t, 1)
	w2, err := m.RegisterWorker(context.Background(), addr2, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.CreateSpec("victim", slowSpec()); err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := m.Subscribe("victim")
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	if err := m.Start("victim"); err != nil {
		t.Fatal(err)
	}

	// Kill worker 1 once the run demonstrably executes on it.
	if _, ok := <-ch; !ok {
		t.Fatal("metric stream closed before the first frame")
	}
	if st, _ := m.Status("victim"); st.Worker != w1.ID {
		t.Fatalf("run placed on %q, want %s", st.Worker, w1.ID)
	}
	stop1()

	res, err := m.Wait(context.Background(), "victim")
	if err != nil {
		t.Fatalf("run did not recover from the killed worker: %v", err)
	}
	wantFrames := slowSpec().Source.Timesteps
	if res.Backend.Frames != wantFrames {
		t.Errorf("recovered run rendered %d frames, want %d", res.Backend.Frames, wantFrames)
	}

	st, err := m.Status("victim")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("final state %s, want done", st.State)
	}
	if st.Worker != w2.ID {
		t.Errorf("final worker %q, want %s", st.Worker, w2.ID)
	}
	if len(st.Attempts) != 2 {
		t.Fatalf("attempt history %+v, want 2 entries", st.Attempts)
	}
	if st.Attempts[0].Worker != w1.ID || st.Attempts[0].Error == "" {
		t.Errorf("first attempt %+v, want a failure on %s", st.Attempts[0], w1.ID)
	}
	if st.Attempts[1].Worker != w2.ID || st.Attempts[1].Error != "" {
		t.Errorf("second attempt %+v, want a clean run on %s", st.Attempts[1], w2.ID)
	}
	if st.FramesSent != 2*wantFrames { // re-streamed in full by the second worker
		t.Errorf("framesSent %d, want %d", st.FramesSent, 2*wantFrames)
	}

	// The dead worker is quarantined, not forgotten.
	for _, ws := range m.Workers() {
		if ws.ID == w1.ID {
			if ws.State != WorkerDead || ws.Failures == 0 {
				t.Errorf("killed worker status %+v, want dead with failures", ws)
			}
		}
	}
}

// TestCapacityExhaustionQueues checks a run waits for a worker slot instead
// of spilling anywhere else while live capacity exists.
func TestCapacityExhaustionQueues(t *testing.T) {
	m := NewManager(1)
	defer m.Close()

	addr, _ := startTestWorker(t, 1)
	ws, err := m.RegisterWorker(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.CreateSpec("hog", slowSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSpec("patient", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("hog"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "hog to occupy the worker", func() bool {
		st, _ := m.Status("hog")
		return st.State == StateRunning
	})
	if err := m.Start("patient"); err != nil {
		t.Fatal(err)
	}

	// The single slot is taken: the second run must sit in the queue.
	time.Sleep(50 * time.Millisecond)
	if st, _ := m.Status("patient"); st.State != StateQueued {
		t.Fatalf("second run state %s, want queued behind the full worker", st.State)
	}

	if _, err := m.Wait(context.Background(), "hog"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), "patient"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hog", "patient"} {
		st, _ := m.Status(name)
		if st.Worker != ws.ID {
			t.Errorf("run %s finished on %q, want %s", name, st.Worker, ws.ID)
		}
	}
	if active := m.Workers()[0].Active; active != 0 {
		t.Errorf("worker still shows %d active runs", active)
	}
}

// TestSpecRunsLocallyWithoutWorkers checks the scheduler's fallback: a
// spec-described run on a worker-less manager executes in-process.
func TestSpecRunsLocallyWithoutWorkers(t *testing.T) {
	m := NewManager(1)
	defer m.Close()

	if err := m.CreateSpec("solo", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("solo"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), "solo"); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Status("solo")
	if st.Worker != "local" {
		t.Errorf("worker-less run placed on %q, want local", st.Worker)
	}
	if len(st.Attempts) != 1 || st.Attempts[0].Worker != "local" || st.Attempts[0].Addr != "" {
		t.Errorf("attempts %+v, want a single local placement", st.Attempts)
	}
}

// TestDeadPoolFallsBackToLocal kills the only worker before dispatch: the
// failed attempt re-queues and, with no live workers left, completes
// locally instead of wedging.
func TestDeadPoolFallsBackToLocal(t *testing.T) {
	m := NewManager(1)
	defer m.Close()

	addr, stop := startTestWorker(t, 1)
	w1, err := m.RegisterWorker(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop() // dies between registration and dispatch

	if err := m.CreateSpec("survivor", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("survivor"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), "survivor"); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Status("survivor")
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if len(st.Attempts) != 2 || st.Attempts[0].Worker != w1.ID || st.Attempts[1].Worker != "local" {
		t.Errorf("attempts %+v, want [%s, local]", st.Attempts, w1.ID)
	}
	if got := m.Workers()[0].State; got != WorkerDead {
		t.Errorf("worker state %s after failed dispatch, want dead", got)
	}

	// Re-registering the same address (the worker came back) is the
	// recovery path: it must replace the dead record, not pile up next to
	// it.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() { defer close(wdone); ServeWorker(wctx, ln, WorkerConfig{Capacity: 1}) }()
	t.Cleanup(func() { wcancel(); <-wdone })
	w2, err := m.RegisterWorker(context.Background(), addr, 0)
	if err != nil {
		t.Fatalf("re-registering a revived worker: %v", err)
	}
	workers := m.Workers()
	if len(workers) != 1 {
		t.Fatalf("worker list %+v after re-registration, want the dead record pruned", workers)
	}
	if workers[0].ID != w2.ID || workers[0].State != WorkerLive {
		t.Errorf("re-registered worker %+v, want live %s", workers[0], w2.ID)
	}
}

// TestDrainedWorkerReceivesNothing drains the only worker and checks new
// runs bypass it (local fallback) while its state survives.
func TestDrainedWorkerReceivesNothing(t *testing.T) {
	m := NewManager(1)
	defer m.Close()

	addr, _ := startTestWorker(t, 2)
	ws, err := m.RegisterWorker(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DrainWorker(ws.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSpec("bypasses", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("bypasses"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), "bypasses"); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Status("bypasses"); st.Worker != "local" {
		t.Errorf("run on a drained pool placed on %q, want local", st.Worker)
	}
}

// TestDrainWakesQueuedRun drains the pool's last live worker while a run
// waits for its only slot: the waiter must wake immediately and take the
// local-fallback path instead of sitting parked until the slot frees.
func TestDrainWakesQueuedRun(t *testing.T) {
	m := NewManager(1)
	defer m.Close()

	addr, _ := startTestWorker(t, 1)
	ws, err := m.RegisterWorker(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	// An extra-slow hog widens the window between the drain-triggered local
	// completion of the waiter and the hog's own release of the slot.
	hogSpec := slowSpec()
	hogSpec.Source.Timesteps = 40
	if err := m.CreateSpec("hog", hogSpec); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSpec("waiter", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("hog"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "hog to occupy the worker", func() bool {
		st, _ := m.Status("hog")
		return st.State == StateRunning
	})
	if err := m.Start("waiter"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "waiter to queue for the full worker", func() bool {
		st, _ := m.Status("waiter")
		return st.State == StateQueued
	})

	if err := m.DrainWorker(ws.ID); err != nil {
		t.Fatal(err)
	}
	// The waiter must complete locally well before the hog frees the slot.
	hogDone := make(chan struct{})
	go func() { m.Wait(context.Background(), "hog"); close(hogDone) }()
	if _, err := m.Wait(context.Background(), "waiter"); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Status("waiter")
	if st.Worker != "local" {
		t.Errorf("woken waiter placed on %q, want local", st.Worker)
	}
	select {
	case <-hogDone:
		t.Error("waiter only completed after the hog released the slot — drain did not wake it")
	default:
	}
	<-hogDone
}

// TestOverstatedCapacityQueuesOnBusy registers a worker with a higher
// capacity than its own gate admits: the surplus dispatches are rejected as
// busy, which must re-queue the runs (correcting the pool's capacity belief)
// rather than burn their attempt budgets — every run still completes.
func TestOverstatedCapacityQueuesOnBusy(t *testing.T) {
	m := NewManager(1)
	defer m.Close()

	addr, _ := startTestWorker(t, 1) // the worker's real gate: one run at a time
	if _, err := m.RegisterWorker(context.Background(), addr, 3); err != nil {
		t.Fatal(err)
	}

	names := []string{"busy-0", "busy-1", "busy-2"}
	for i, name := range names {
		spec := slowSpec()
		if i > 0 {
			spec = quickSpec()
		}
		if err := m.CreateSpec(name, spec); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		if _, err := m.Wait(context.Background(), name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range names {
		st, _ := m.Status(name)
		if st.State != StateDone {
			t.Errorf("run %s finished in state %s (attempts %+v)", name, st.State, st.Attempts)
		}
		// Busy rejections are scheduling misses: the history must only hold
		// the one placement that actually executed.
		if len(st.Attempts) != 1 {
			t.Errorf("run %s has %d attempts, want 1: %+v", name, len(st.Attempts), st.Attempts)
		}
	}
	// The busy replies taught the pool the capacity was overstated. The
	// exact converged value depends on how the rejections interleave, so
	// only the direction is asserted.
	if got := m.Workers()[0].Capacity; got >= 3 {
		t.Errorf("pool capacity belief %d after busy rejections, want clamped below the registered 3", got)
	}
	if got := m.Workers()[0].State; got != WorkerLive {
		t.Errorf("worker state %s after busy rejections, want live", got)
	}
}

// TestRunErrorRetriesAreBounded drives a run against a healthy worker that
// fails every dispatch: the scheduler must retry up to the attempt budget
// and then fail the run — without declaring the worker dead.
func TestRunErrorRetriesAreBounded(t *testing.T) {
	m := NewManager(1)
	defer m.Close()
	m.SetMaxAttempts(2)

	addr := startFaultyWorker(t)
	if _, err := m.RegisterWorker(context.Background(), addr, 1); err != nil {
		t.Fatal(err)
	}

	if err := m.CreateSpec("doomed", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), "doomed"); err == nil {
		t.Fatal("run succeeded against a worker that fails every dispatch")
	}
	st, _ := m.Status("doomed")
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if len(st.Attempts) != 2 {
		t.Errorf("attempt history %+v, want exactly the budget of 2", st.Attempts)
	}
	// A run error over a healthy connection condemns the run, not the
	// worker.
	if got := m.Workers()[0].State; got != WorkerLive {
		t.Errorf("worker state %s after run errors, want live", got)
	}
}

// TestRunErrorRetriesElsewhere checks the "retry elsewhere" contract: when
// a healthy worker reports a run failure and another live worker exists, the
// retry is placed on the other worker — not back on the one that just
// failed it.
func TestRunErrorRetriesElsewhere(t *testing.T) {
	m := NewManager(1)
	defer m.Close()

	// The faulty worker registers first, so the 0/0 load tie places the
	// first attempt on it.
	faultyAddr := startFaultyWorker(t)
	faulty, err := m.RegisterWorker(context.Background(), faultyAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	goodAddr, _ := startTestWorker(t, 1)
	good, err := m.RegisterWorker(context.Background(), goodAddr, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.CreateSpec("rescued", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("rescued"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), "rescued"); err != nil {
		t.Fatalf("run was not rescued by the second worker: %v", err)
	}
	st, _ := m.Status("rescued")
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if len(st.Attempts) != 2 {
		t.Fatalf("attempts %+v, want 2", st.Attempts)
	}
	if st.Attempts[0].Worker != faulty.ID || st.Attempts[0].Error == "" {
		t.Errorf("first attempt %+v, want a failure on %s", st.Attempts[0], faulty.ID)
	}
	if st.Attempts[1].Worker != good.ID {
		t.Errorf("retry placed on %q, want the other worker %s", st.Attempts[1].Worker, good.ID)
	}
}

// TestManagerCloseTerminatesRemoteQueue closes a manager while one run
// executes remotely and another waits for the full worker — both must reach
// a terminal state.
func TestManagerCloseTerminatesRemoteQueue(t *testing.T) {
	// The worker outlives the leak check (t.Cleanup), so it starts before
	// the baseline.
	addr, _ := startTestWorker(t, 1)
	before := runtime.NumGoroutine()
	m := NewManager(1)
	if _, err := m.RegisterWorker(context.Background(), addr, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSpec("running", slowSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSpec("queued", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("running"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the run to occupy the worker", func() bool {
		st, _ := m.Status("running")
		return st.State == StateRunning
	})
	if err := m.Start("queued"); err != nil {
		t.Fatal(err)
	}

	m.Close()
	for _, st := range m.List() {
		if !st.State.Terminal() {
			t.Errorf("run %s left in state %s after Close", st.Name, st.State)
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestSchedulerRequeueRaceStress hammers dispatch and re-queue concurrently:
// several runs across two workers, one of which is killed mid-flight. Run
// with -race in CI; every run must still reach StateDone.
func TestSchedulerRequeueRaceStress(t *testing.T) {
	m := NewManager(2)
	defer m.Close()

	addr1, stop1 := startTestWorker(t, 2)
	if _, err := m.RegisterWorker(context.Background(), addr1, 0); err != nil {
		t.Fatal(err)
	}
	addr2, _ := startTestWorker(t, 2)
	if _, err := m.RegisterWorker(context.Background(), addr2, 0); err != nil {
		t.Fatal(err)
	}

	const n = 6
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("stress-%d", i)
		spec := quickSpec()
		spec.Source.Timesteps = 6 // long enough that the kill lands mid-run
		if err := m.CreateSpec(name, spec); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(name); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one worker while the fleet executes.
	waitUntil(t, "any run to start executing", func() bool {
		for _, st := range m.List() {
			if st.State == StateRunning {
				return true
			}
		}
		return false
	})
	stop1()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, err := m.Wait(context.Background(), name); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}(fmt.Sprintf("stress-%d", i))
	}
	wg.Wait()
	for _, st := range m.List() {
		if st.State != StateDone {
			t.Errorf("run %s finished in state %s (attempts %+v)", st.Name, st.State, st.Attempts)
		}
	}
}
