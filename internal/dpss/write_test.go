package dpss

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// seqWriteFile is a File whose blocks all live on one fake server (no
// master involved).
func seqWriteFile(client *Client, addr, name string, size, blockSize int) *File {
	return &File{client: client, info: DatasetInfo{
		Name: name, Size: int64(size), BlockSize: blockSize, Servers: []string{addr},
	}}
}

// TestWriteAtContextPipelinesBlocks: a multi-block write issues its blocks
// before awaiting their acks, so one server has more than one write in
// service at once, and every block lands intact.
func TestWriteAtContextPipelinesBlocks(t *testing.T) {
	const (
		blockSize = 1 << 10
		blocks    = 16
	)
	srv := newSeqBlockServer(t, 5*time.Millisecond)
	client := NewClient("127.0.0.1:1")
	defer client.Close()
	data := patternData(blocks*blockSize + 100)
	f := seqWriteFile(client, srv.l.Addr().String(), "pipelined", len(data), blockSize)

	n, err := f.WriteAtContext(context.Background(), data, 0)
	if err != nil || n != len(data) {
		t.Fatalf("WriteAtContext = %d, %v; want %d, nil", n, err, len(data))
	}
	if peak := srv.peakInflight(); peak < 2 {
		t.Fatalf("peak of %d writes in service at one server, want more than 1 (pipelined)", peak)
	}
	for b := 0; b*blockSize < len(data); b++ {
		got, err := srv.disk.ReadBlock("pipelined", int64(b))
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if want := data[b*blockSize : min((b+1)*blockSize, len(data))]; !bytes.Equal(got, want) {
			t.Fatalf("block %d stored %d different bytes", b, len(got))
		}
	}
}

// TestWriteAtProgressReportsEveryBlock: the progress feed reports the
// acknowledged prefix once per block, rising monotonically to len(p).
func TestWriteAtProgressReportsEveryBlock(t *testing.T) {
	const blockSize = 1 << 10
	srv := newSeqBlockServer(t, 0)
	client := NewClient("127.0.0.1:1")
	defer client.Close()
	data := patternData(10*blockSize + 17)
	f := seqWriteFile(client, srv.l.Addr().String(), "progress", len(data), blockSize)

	var got []int64
	n, err := f.WriteAtProgress(context.Background(), data, 0, func(written int64) {
		got = append(got, written)
	})
	if err != nil || n != len(data) {
		t.Fatalf("WriteAtProgress = %d, %v; want %d, nil", n, err, len(data))
	}
	if len(got) != 11 {
		t.Fatalf("%d progress events, want one per block (11): %v", len(got), got)
	}
	for i, w := range got {
		if want := int64(min((i+1)*blockSize, len(data))); w != want {
			t.Fatalf("progress event %d = %d, want %d (all: %v)", i, w, want, got)
		}
	}
}

// TestWriteAtContextCancelMidFile: cancelling a write while several of its
// blocks wait on a stalled server returns context.Canceled promptly with
// nothing acknowledged, and once the server recovers the next write goes
// through. A cancelled write is withdrawn like a cancelled read: its frames
// were sent whole, so the stripe connections stay in service (the late acks
// are drained, or the op timeout retires a server that never sends them)
// rather than being torn down under the other calls sharing them.
func TestWriteAtContextCancelMidFile(t *testing.T) {
	const (
		blockSize = 1 << 10
		size      = 8 * blockSize
	)
	srv := newStalledBlockServer(t, blockSize)
	client := NewClient("127.0.0.1:1")
	defer client.Close()
	f := seqWriteFile(client, srv.l.Addr().String(), "cancel", size, blockSize)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for srv.seen.Load() < 2 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	var progress []int64
	start := time.Now()
	n, err := f.WriteAtProgress(ctx, make([]byte, size), 0, func(written int64) {
		progress = append(progress, written)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteAtProgress error = %v, want context.Canceled", err)
	}
	if n != 0 || len(progress) != 0 {
		t.Fatalf("cancelled write acknowledged %d bytes (progress %v), want 0", n, progress)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled write took %v, want prompt abort", elapsed)
	}

	srv.stalled.Store(false)
	if n, err := f.WriteAtContext(context.Background(), make([]byte, size), 0); err != nil || n != size {
		t.Fatalf("write after recovery = %d, %v; want %d, nil", n, err, size)
	}
	for _, st := range client.StripeStats() {
		if st.Failures != 0 {
			t.Fatalf("cancelled write tore down a stripe connection: %+v", st)
		}
	}
}
