package wire

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"visapult/internal/volume"
)

// linkPair returns a Link over n in-memory connections and the viewer-side
// ends, in PE order.
func linkPair(n int) (*Link, []*Conn) {
	conns := make([]*Conn, n)
	viewer := make([]*Conn, n)
	for i := range conns {
		a, b := net.Pipe()
		conns[i], viewer[i] = NewConn(a), NewConn(b)
	}
	return NewLink(conns...), viewer
}

// serveUntilDone plays a healthy viewer on one connection: it sends the
// given hints, reads until Done, waits linger, then closes its side.
func serveUntilDone(t *testing.T, c *Conn, hints []volume.Axis, linger time.Duration) {
	t.Helper()
	for i, a := range hints {
		if err := c.SendAxisHint(&AxisHint{Frame: i, Axis: a}); err != nil {
			t.Errorf("viewer: sending hint: %v", err)
			return
		}
	}
	for {
		m, err := c.ReadMessage()
		if err != nil {
			t.Errorf("viewer: stream ended without Done: %v", err)
			return
		}
		if m.Type == MsgDone {
			break
		}
	}
	time.Sleep(linger)
	c.Close()
}

// checkGoroutines fails unless the goroutine count returns to before.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLinkDrainHintsAppliesAxis checks every hint the viewer sends on any
// connection reaches apply, and a nil apply only drains.
func TestLinkDrainHintsAppliesAxis(t *testing.T) {
	before := runtime.NumGoroutine()
	link, viewer := linkPair(3)
	var mu sync.Mutex
	got := map[volume.Axis]int{}
	link.DrainHints(func(a volume.Axis) {
		mu.Lock()
		got[a]++
		mu.Unlock()
	})
	link.DrainHints(nil) // only the first call has an effect

	var wg sync.WaitGroup
	for _, c := range viewer {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			serveUntilDone(t, c, []volume.Axis{volume.AxisY, volume.AxisZ}, 0)
		}(c)
	}
	if err := link.Finish(10 * time.Second); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	wg.Wait()
	if got[volume.AxisY] != 3 || got[volume.AxisZ] != 3 || len(got) != 2 {
		t.Errorf("applied hints = %v, want 3 of Y and 3 of Z", got)
	}
	checkGoroutines(t, before)
}

// TestLinkFinishWaitsForViewerClose checks Finish returns once the viewer
// has closed every connection — not before, and not on a timer.
func TestLinkFinishWaitsForViewerClose(t *testing.T) {
	before := runtime.NumGoroutine()
	const linger = 50 * time.Millisecond
	link, viewer := linkPair(2)
	var wg sync.WaitGroup
	for _, c := range viewer {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			serveUntilDone(t, c, nil, linger)
		}(c)
	}
	start := time.Now()
	if err := link.Finish(10 * time.Second); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if el := time.Since(start); el < linger || el > 5*time.Second {
		t.Errorf("Finish returned after %v, want just past the viewer's %v close", el, linger)
	}
	wg.Wait()
	checkGoroutines(t, before)
}

// TestLinkFinishWithoutGraceWaits checks grace <= 0 waits for the viewer
// however long it takes.
func TestLinkFinishWithoutGraceWaits(t *testing.T) {
	const linger = 30 * time.Millisecond
	link, viewer := linkPair(1)
	go serveUntilDone(t, viewer[0], nil, linger)
	start := time.Now()
	if err := link.Finish(0); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if el := time.Since(start); el < linger {
		t.Errorf("Finish returned after %v, before the viewer closed", el)
	}
}

// TestLinkFinishBoundsWedgedViewer checks grace bounds a viewer that never
// reads: Finish closes the connections, failing the blocked Done, and
// leaves no goroutine behind.
func TestLinkFinishBoundsWedgedViewer(t *testing.T) {
	before := runtime.NumGoroutine()
	const grace = 50 * time.Millisecond
	link, viewer := linkPair(2)
	start := time.Now()
	if err := link.Finish(grace); err == nil {
		t.Error("Finish on a wedged viewer returned nil, want the failed Done")
	}
	if el := time.Since(start); el < grace || el > 5*time.Second {
		t.Errorf("Finish returned after %v, want about the %v grace", el, grace)
	}
	// The close reaches the viewer: its reads end.
	for i, c := range viewer {
		if _, err := c.ReadMessage(); err == nil {
			t.Errorf("viewer conn %d still readable after Finish", i)
		}
		c.Close()
	}
	checkGoroutines(t, before)
}

// TestLinkCloseAborts checks Close fails the drain readers at once, and a
// Finish after it returns without waiting.
func TestLinkCloseAborts(t *testing.T) {
	before := runtime.NumGoroutine()
	link, viewer := linkPair(2)
	link.DrainHints(nil)
	if err := link.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := link.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	start := time.Now()
	if err := link.Finish(10 * time.Second); err == nil {
		t.Error("Finish after Close returned nil, want the failed Done")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("Finish after Close took %v", el)
	}
	for _, c := range viewer {
		c.Close()
	}
	checkGoroutines(t, before)
}
