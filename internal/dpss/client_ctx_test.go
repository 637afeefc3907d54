package dpss

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// stalledBlockServer is a fake DPSS block server that accepts connections and
// reads requests but, while stalled, never replies — the shape of a wedged or
// partitioned server that used to pin a back-end PE until the next frame
// boundary. Unstalled, it answers sequenced block reads with zero-filled
// blocks of the advertised size and acknowledges everything else.
type stalledBlockServer struct {
	l       net.Listener
	stalled atomic.Bool
	block   []byte
}

func newStalledBlockServer(t *testing.T, blockSize int) *stalledBlockServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &stalledBlockServer{l: l, block: make([]byte, blockSize)}
	s.stalled.Store(true)
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *stalledBlockServer) serve(conn net.Conn) {
	defer conn.Close()
	for {
		msgType, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		if s.stalled.Load() {
			// Swallow the request: the client's read blocks until its
			// context poisons the connection.
			continue
		}
		if msgType != msgRead2 {
			if err := writeFrame(conn, msgOK, nil); err != nil {
				return
			}
			continue
		}
		// A sequenced whole-block read: echo the seq ahead of the block.
		if len(payload) < 4 {
			return
		}
		if err := writeFrame(conn, msgOK2, append(payload[:4:4], s.block...)); err != nil {
			return
		}
	}
}

// TestReadAtContextCancelsStalledRead is the regression test for the
// context-aware DPSS read path: a cancelled context must abort a block read
// that is blocked on a stalled server immediately, not wait for the server to
// come back, and the poisoned connection must not be reused afterwards.
func TestReadAtContextCancelsStalledRead(t *testing.T) {
	const blockSize = 1024
	srv := newStalledBlockServer(t, blockSize)

	client := NewClient("127.0.0.1:1") // the master is never contacted
	defer client.Close()
	f := &File{client: client, info: DatasetInfo{
		Name: "stalled.t0000", Size: 4 * blockSize, BlockSize: blockSize,
		Servers: []string{srv.l.Addr().String()},
	}}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	buf := make([]byte, blockSize)
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAtContext(ctx, buf, 0)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAtContext did not return after cancellation: the in-flight block read was not aborted")
	}
	if err == nil {
		t.Fatal("ReadAtContext returned nil error against a stalled server")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadAtContext error = %v, want a context.Canceled cause", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}

	// The aborted exchange left its connection mid-frame; it must have been
	// discarded. Once the server behaves, a fresh read must succeed on a
	// newly dialed connection instead of failing on the poisoned one.
	srv.stalled.Store(false)
	if _, err := f.ReadAtContext(context.Background(), buf, 0); err != nil {
		t.Fatalf("read after recovery: %v (poisoned connection reused?)", err)
	}
}

// TestReadAtContextPreCancelled: an already-cancelled context fails fast
// without touching the network.
func TestReadAtContextPreCancelled(t *testing.T) {
	srv := newStalledBlockServer(t, 64)
	client := NewClient("127.0.0.1:1")
	defer client.Close()
	f := &File{client: client, info: DatasetInfo{
		Name: "pre.t0000", Size: 64, BlockSize: 64,
		Servers: []string{srv.l.Addr().String()},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.ReadAtContext(ctx, make([]byte, 64), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled read error = %v, want context.Canceled", err)
	}
}
