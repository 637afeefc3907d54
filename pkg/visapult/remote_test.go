package visapult

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// servedViewer is one ServeViewer running in the background.
type servedViewer struct {
	addr string
	rep  *ViewerReport
	err  error
	done chan struct{}
}

// startServeViewer runs ServeViewer under ctx and returns once it listens.
func startServeViewer(t *testing.T, ctx context.Context, cfg ViewerConfig) *servedViewer {
	t.Helper()
	sv := &servedViewer{done: make(chan struct{})}
	ready := make(chan string, 1)
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.OnListen = func(addr net.Addr) { ready <- addr.String() }
	go func() {
		defer close(sv.done)
		sv.rep, sv.err = ServeViewer(ctx, cfg)
	}()
	select {
	case sv.addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("viewer never started listening")
	}
	return sv
}

// wait joins the viewer goroutine.
func (sv *servedViewer) wait(t *testing.T) {
	t.Helper()
	select {
	case <-sv.done:
	case <-time.After(10 * time.Second):
		t.Fatal("viewer never finished")
	}
}

// TestRunBackendSingleViewerFollowView drives the single-address split
// deployment over real sockets: the viewer's best-axis hints travel back as
// wire frames and re-orient the back end's decomposition.
func TestRunBackendSingleViewerFollowView(t *testing.T) {
	const pes, steps = 2, 4
	// The back end starts on X; a camera at angle 0 looks down Z, so the
	// viewer's hint is Z. Slow loads leave the hint time to arrive before the
	// later frames are decomposed.
	sv := startServeViewer(t, context.Background(), ViewerConfig{PEs: pes})
	rep, err := RunBackend(context.Background(), BackendConfig{
		ViewerAddr: sv.addr,
		PEs:        pes,
		Timesteps:  steps,
		Source:     &slowTestSource{Source: fanoutTestSource(steps), delay: 10 * time.Millisecond},
		FollowView: true,
	})
	if err != nil {
		t.Fatalf("RunBackend: %v", err)
	}
	sv.wait(t)
	if sv.err != nil {
		t.Fatalf("viewer: %v", sv.err)
	}
	if rep.Stats.Frames != steps {
		t.Errorf("back end ran %d frames, want %d", rep.Stats.Frames, steps)
	}
	if rep.Stats.AxisFlips == 0 {
		t.Error("the viewer's wire hints never changed the decomposition axis")
	}
	if len(rep.Viewers) != 0 {
		t.Errorf("single-viewer report carries %d fan-out records", len(rep.Viewers))
	}
	if got := sv.rep.Stats.FramesCompleted; got != steps {
		t.Errorf("viewer completed %d frames, want %d", got, steps)
	}
}

// TestRunBackendSingleViewerCancel cancels a single-address run mid-stream:
// RunBackend returns the context's error and neither end leaves a goroutine
// behind.
func TestRunBackendSingleViewerCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	const pes = 2
	sv := startServeViewer(t, context.Background(), ViewerConfig{PEs: pes})

	src := &slowTestSource{Source: smallSource(50), delay: 20 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for src.loads.Load() < 2 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		cancel()
	}()
	_, err := RunBackend(ctx, BackendConfig{
		ViewerAddr: sv.addr,
		PEs:        pes,
		Mode:       Overlapped,
		Source:     src,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBackend returned %v, want context.Canceled", err)
	}
	// The viewer sees its streams end when the back end's sockets close.
	sv.wait(t)
	checkNoGoroutineLeak(t, before)
}
