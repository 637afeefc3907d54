package visapult

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// A connection that opens with JSON instead of the dispatch magic is dropped
// without a reply — promptly, and without taking the worker down.
func TestWorkerDropsJSONOpener(t *testing.T) {
	addr, _ := startTestWorker(t, 2)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(`{"op":"ping"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	var buf [64]byte
	n, err := conn.Read(buf[:])
	if n != 0 {
		t.Fatalf("worker replied %q to a JSON opener", buf[:n])
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("worker neither replied nor closed the JSON connection")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := pingWorker(ctx, addr); err != nil {
		t.Fatalf("worker stopped answering after a JSON opener: %v", err)
	}
}

// A DPing/DPong exchange carries the worker's capacity and its live count of
// dispatched runs.
func TestWorkerPingReportsCapacityAndActive(t *testing.T) {
	addr, _ := startTestWorker(t, 3)
	ping := func() WorkerHello {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hello, err := pingWorker(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		return hello
	}
	if hello := ping(); hello.Capacity != 3 || hello.Active != 0 {
		t.Fatalf("idle worker hello %+v, want capacity 3, active 0", hello)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := dispatchRun(ctx, addr, "busy", slowSpec(), nil, nil, nil)
		done <- err
	}()
	waitUntil(t, "ping to report the dispatched run", func() bool { return ping().Active == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled dispatch returned %v, want context.Canceled", err)
	}
	waitUntil(t, "ping to report the run released", func() bool { return ping().Active == 0 })
	if hello := ping(); hello.Capacity != 3 {
		t.Fatalf("hello after the run %+v, want capacity 3", hello)
	}
}
