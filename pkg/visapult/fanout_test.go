package visapult

import (
	"context"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"visapult/internal/volume"
	"visapult/internal/wire"
)

// fanoutTestSource returns a small source sized so runs finish quickly but
// still span several frames.
func fanoutTestSource(steps int) Source {
	return NewCombustionSource(CombustionSpec{NX: 16, NY: 8, NZ: 8, Timesteps: steps})
}

func TestPipelineWithViewersMulticastsOverTCP(t *testing.T) {
	const pes, steps, viewers = 2, 3, 3
	p, err := New(
		WithSource(fanoutTestSource(steps)),
		WithPEs(pes),
		WithViewers(viewers),
		WithTransport(TransportTCP),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Viewers) != viewers {
		t.Fatalf("got %d viewer results, want %d", len(res.Viewers), viewers)
	}
	want := pes * steps
	for _, vr := range res.Viewers {
		if vr.Delivery.FramesSent != want || vr.Delivery.FramesDropped != 0 {
			t.Errorf("viewer %s delivery = %+v, want %d sent / 0 dropped", vr.ID, vr.Delivery, want)
		}
		if vr.Stats.PayloadsReceived != want {
			t.Errorf("viewer %s received %d payloads, want %d", vr.ID, vr.Stats.PayloadsReceived, want)
		}
		if vr.Stats.FramesCompleted != steps {
			t.Errorf("viewer %s completed %d frames, want %d", vr.ID, vr.Stats.FramesCompleted, steps)
		}
		if vr.Err != "" {
			t.Errorf("viewer %s serve error: %s", vr.ID, vr.Err)
		}
	}
	// The primary viewer's stats are surfaced in the classic field too.
	if res.Viewer.PayloadsReceived != want {
		t.Errorf("primary viewer stats = %+v, want %d payloads", res.Viewer, want)
	}
	if res.FinalImage == nil {
		t.Error("fan-out run produced no final image")
	}
}

func TestPipelineWithViewersLocalTransport(t *testing.T) {
	const pes, steps, viewers = 2, 2, 2
	p, err := New(
		WithSource(fanoutTestSource(steps)),
		WithPEs(pes),
		WithViewers(viewers),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Viewers) != viewers {
		t.Fatalf("got %d viewer results, want %d", len(res.Viewers), viewers)
	}
	for _, vr := range res.Viewers {
		if vr.Stats.PayloadsReceived != pes*steps {
			t.Errorf("viewer %s received %d payloads, want %d", vr.ID, vr.Stats.PayloadsReceived, pes*steps)
		}
	}
}

// TestPipelineWithViewersFollowView pins the fan-out's axis feedback: both
// viewers look down X, so the primary viewer's best-axis hints must move a
// Z decomposition onto X by the last frame, over sockets and in process.
func TestPipelineWithViewersFollowView(t *testing.T) {
	const pes, steps = 2, 5
	for _, tp := range []Transport{TransportTCP, TransportLocal} {
		t.Run(tp.String(), func(t *testing.T) {
			var lastAxis atomic.Int32
			lastAxis.Store(-1)
			p, err := New(
				WithSource(&slowTestSource{Source: fanoutTestSource(steps), delay: 10 * time.Millisecond}),
				WithPEs(pes),
				WithViewers(2),
				WithTransport(tp),
				WithFollowView(),
				WithViewAngle(math.Pi/2),
				WithAxis(AxisZ),
				withSlabHook(func(lp *wire.LightPayload, _ *wire.HeavyPayload) {
					if lp.Frame == steps-1 {
						lastAxis.Store(int32(lp.Axis))
					}
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(context.Background())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Backend.AxisFlips == 0 {
				t.Error("the primary viewer's hints never flipped the decomposition")
			}
			if got := Axis(lastAxis.Load()); got != volume.AxisX {
				t.Errorf("last frame decomposed along %v, want X", got)
			}
		})
	}
}

func TestWithViewersRejectsWithoutViewer(t *testing.T) {
	_, err := New(WithSource(fanoutTestSource(1)), WithViewers(2), WithoutViewer())
	if err == nil {
		t.Fatal("WithViewers + WithoutViewer validated")
	}
}

func TestManagerAttachDetachViewerMidRun(t *testing.T) {
	mgr := NewManager(2)
	defer mgr.Close()

	// A slow source keeps the run alive long enough to attach mid-run.
	slow := &slowTestSource{Source: fanoutTestSource(8), delay: 30 * time.Millisecond}
	if err := mgr.Create("fan", WithSource(slow), WithPEs(2), WithViewers(1)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start("fan"); err != nil {
		t.Fatal(err)
	}

	// Wait for the fan-out to come live.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := mgr.Viewers("fan"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never exposed its fan-out")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := mgr.AttachViewer("fan", "late"); err != nil {
		t.Fatalf("AttachViewer: %v", err)
	}
	if err := mgr.AttachViewer("fan", "late"); err == nil {
		t.Fatal("double attach under one id succeeded")
	}
	if err := mgr.AttachViewer("fan", "transient"); err != nil {
		t.Fatalf("AttachViewer transient: %v", err)
	}
	if err := mgr.DetachViewer("fan", "transient"); err != nil {
		t.Fatalf("DetachViewer: %v", err)
	}

	if _, err := mgr.Wait(context.Background(), "fan"); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	vds, err := mgr.Viewers("fan")
	if err != nil {
		t.Fatalf("Viewers after finish: %v", err)
	}
	byID := map[string]ViewerDelivery{}
	for _, d := range vds {
		byID[d.ID] = d
	}
	if len(byID) != 3 {
		t.Fatalf("got %d viewers %v, want viewer-0, late, transient", len(byID), byID)
	}
	if d := byID["late"]; d.FramesSent == 0 {
		t.Errorf("late viewer delivered nothing: %+v", d)
	}
	if d := byID["transient"]; !d.Detached {
		t.Errorf("transient viewer not marked detached: %+v", d)
	}
	if d := byID["viewer-0"]; d.StartFrame != 0 || d.FramesSent == 0 {
		t.Errorf("primary viewer delivery = %+v", d)
	}

	// The run status carries the same snapshot.
	st, err := mgr.Status("fan")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Viewers) != 3 {
		t.Errorf("status reports %d viewers, want 3", len(st.Viewers))
	}

	// Attach after the run finished must fail: the fan-out is closed.
	if err := mgr.AttachViewer("fan", "too-late"); err == nil {
		t.Error("attach after run end succeeded")
	}
}

func TestManagerViewerOpsWithoutFanout(t *testing.T) {
	mgr := NewManager(1)
	defer mgr.Close()
	if err := mgr.Create("plain", WithSource(fanoutTestSource(1)), WithPEs(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Viewers("plain"); !errors.Is(err, ErrNoFanout) {
		t.Fatalf("Viewers on plain run = %v, want ErrNoFanout", err)
	}
	if err := mgr.AttachViewer("plain", "v"); !errors.Is(err, ErrNoFanout) {
		t.Fatalf("AttachViewer on plain run = %v, want ErrNoFanout", err)
	}
	if _, err := mgr.Viewers("missing"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("Viewers on unknown run = %v, want ErrUnknownRun", err)
	}
}

func TestRunSpecViewersRoundTrip(t *testing.T) {
	spec := RunSpec{
		Source:      SourceSpec{Kind: "combustion", NX: 16, NY: 8, NZ: 8, Timesteps: 2},
		PEs:         2,
		Viewers:     2,
		ViewerQueue: 8,
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Viewers) != 2 {
		t.Fatalf("spec-built run reported %d viewers, want 2", len(res.Viewers))
	}
}

// TestRunBackendMulticast drives the split-process deployment's multicast
// path in-process: one RunBackend feeding two ServeViewer instances, every
// viewer assembling the full frame sequence.
func TestRunBackendMulticast(t *testing.T) {
	const pes, steps, nViewers = 2, 3, 2

	type viewerRun struct {
		addr string
		rep  *ViewerReport
		err  error
		done chan struct{}
	}
	viewers := make([]*viewerRun, nViewers)
	for i := range viewers {
		vr := &viewerRun{done: make(chan struct{})}
		ready := make(chan string, 1)
		go func() {
			defer close(vr.done)
			vr.rep, vr.err = ServeViewer(context.Background(), ViewerConfig{
				ListenAddr: "127.0.0.1:0",
				PEs:        pes,
				OnListen:   func(addr net.Addr) { ready <- addr.String() },
			})
		}()
		select {
		case vr.addr = <-ready:
		case <-time.After(5 * time.Second):
			t.Fatal("viewer never started listening")
		}
		viewers[i] = vr
	}

	addrs := make([]string, nViewers)
	for i, vr := range viewers {
		addrs[i] = vr.addr
	}
	rep, err := RunBackend(context.Background(), BackendConfig{
		ViewerAddrs: addrs,
		PEs:         pes,
		Timesteps:   steps,
		Source:      fanoutTestSource(steps),
	})
	if err != nil {
		t.Fatalf("RunBackend: %v", err)
	}
	if len(rep.Viewers) != nViewers {
		t.Fatalf("report carries %d viewer deliveries, want %d", len(rep.Viewers), nViewers)
	}
	want := pes * steps
	for _, d := range rep.Viewers {
		if d.FramesSent != want || d.FramesDropped != 0 {
			t.Errorf("delivery %s = %+v, want %d sent / 0 dropped", d.ID, d, want)
		}
	}

	for i, vr := range viewers {
		select {
		case <-vr.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("viewer %d never finished", i)
		}
		if vr.err != nil {
			t.Fatalf("viewer %d: %v", i, vr.err)
		}
		if vr.rep.Stats.PayloadsReceived != want {
			t.Errorf("viewer %d received %d payloads, want %d", i, vr.rep.Stats.PayloadsReceived, want)
		}
		if vr.rep.Stats.FramesCompleted != steps {
			t.Errorf("viewer %d completed %d frames, want %d", i, vr.rep.Stats.FramesCompleted, steps)
		}
	}
}

// TestFanoutSpecPlacedOnRemoteWorker: a multi-viewer spec dispatched to a
// remote worker fans out on the worker, and the per-viewer results come back
// over the control protocol.
func TestFanoutSpecPlacedOnRemoteWorker(t *testing.T) {
	addr, stop := startTestWorker(t, 2)
	defer stop()

	mgr := NewManager(1)
	defer mgr.Close()
	if _, err := mgr.RegisterWorker(context.Background(), addr, 0); err != nil {
		t.Fatalf("RegisterWorker: %v", err)
	}

	spec := RunSpec{
		Source:  SourceSpec{Kind: "combustion", NX: 16, NY: 8, NZ: 8, Timesteps: 2},
		PEs:     2,
		Viewers: 2,
	}
	if err := mgr.CreateSpec("remote-fan", spec); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start("remote-fan"); err != nil {
		t.Fatal(err)
	}
	res, err := mgr.Wait(context.Background(), "remote-fan")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st, _ := mgr.Status("remote-fan")
	if st.Worker == "local" || st.Worker == "" {
		t.Fatalf("run executed on %q, want the remote worker", st.Worker)
	}
	if len(res.Viewers) != 2 {
		t.Fatalf("remote result carries %d viewer records, want 2", len(res.Viewers))
	}
	for _, vr := range res.Viewers {
		if vr.Delivery.FramesSent != 2*2 {
			t.Errorf("remote viewer %s delivery = %+v, want 4 pairs", vr.ID, vr.Delivery)
		}
	}
	// Dynamic attach is local-only: a remotely placed run has no local
	// fan-out to attach to.
	if err := mgr.AttachViewer("remote-fan", "extra"); !errors.Is(err, ErrNoFanout) {
		t.Errorf("AttachViewer on remote run = %v, want ErrNoFanout", err)
	}
}
