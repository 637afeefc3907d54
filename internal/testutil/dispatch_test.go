package testutil

// Dispatch end-to-end: a dispatcher and worker pair must stream slab
// payloads into the dispatcher's frame cache. This lives here rather than in
// pkg/visapult so it exercises the public manager surface exactly as
// cmd/visapultd does.

import (
	"context"
	"net"
	"testing"
	"time"

	"visapult/pkg/visapult"
)

// startDispatchWorker runs an in-process dispatch worker.
func startDispatchWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := visapult.ServeWorker(ctx, ln, visapult.WorkerConfig{
			Capacity:        2,
			FrameCacheBytes: 16 << 20,
		}); err != nil {
			t.Errorf("ServeWorker: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

func dispatchSpec() visapult.RunSpec {
	return visapult.RunSpec{
		Source: visapult.SourceSpec{Kind: "combustion", NX: 24, NY: 16, NZ: 16, Timesteps: 3, Seed: 7},
		PEs:    2, Mode: "overlapped",
	}
}

func runNamed(t *testing.T, m *visapult.Manager, name string, spec visapult.RunSpec) []visapult.FrameMetric {
	t.Helper()
	if err := m.CreateSpec(name, spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(name); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, name); err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	ms, err := m.Metrics(name)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// A dispatcher and worker pair: the run completes over the binary wire, and
// the worker's slab deliveries seed the dispatcher's frame cache — a
// follow-up local run of the same content replays from it without
// rendering.
func TestDispatchV2SlabDeliverySeedsDispatcherCache(t *testing.T) {
	addr := startDispatchWorker(t)
	m := visapult.NewManager(1)
	defer m.Close()
	m.SetFrameCacheCapacity(16 << 20)

	ws, err := m.RegisterWorker(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := dispatchSpec()
	if ms := runNamed(t, m, "remote-v2", spec); len(ms) == 0 {
		t.Fatal("v2 run produced no frame metrics")
	}
	st := m.FrameCacheStats()
	if st.Entries == 0 {
		t.Fatalf("remote run seeded no cache entries: %+v", st)
	}

	// Retire the worker; the same content now runs locally and must replay
	// the remotely rendered slabs.
	if err := m.RemoveWorker(ws.ID); err != nil {
		t.Fatal(err)
	}
	ms := runNamed(t, m, "local-replay", spec)
	hits := 0
	for _, fm := range ms {
		if fm.CacheHit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("local replay of remotely rendered content scored no cache hits: %+v", m.FrameCacheStats())
	}
}
