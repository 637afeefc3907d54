package dpss

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// oddExtents cuts [0, size) into pieceLen-byte extents (the last one short),
// all scattering into one destination buffer. An odd pieceLen makes pieces
// straddle block boundaries.
func oddExtents(dst []byte, pieceLen int) []Extent {
	var exts []Extent
	for off := 0; off < len(dst); off += pieceLen {
		end := off + pieceLen
		if end > len(dst) {
			end = len(dst)
		}
		exts = append(exts, Extent{Off: int64(off), Len: end - off, Dst: dst[off:end]})
	}
	return exts
}

func patternData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	return data
}

// TestReadvScatterEndToEnd stages a multi-block dataset on a live cluster and
// reads it back through the vectored scatter path with extents that straddle
// block and server boundaries, over several stripes — the pipelined v2 wire.
func TestReadvScatterEndToEnd(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 3, DisksPerServer: 2})
	data := patternData(300*1024 + 17)
	client := c.NewClient(WithStripes(3))
	defer client.Close()
	if _, err := c.LoadBytes(client, "vec", data, 8<<10); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open("vec")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.ReadvScatter(context.Background(), oddExtents(got, 4093)); err != nil {
		t.Fatalf("ReadvScatter: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("vectored read returned different bytes")
	}

	// The stripe pool actually moved bytes.
	stats := client.StripeStats()
	if len(stats) == 0 {
		t.Fatal("no stripe stats after a vectored read")
	}
	var total int64
	for _, st := range stats {
		total += st.Bytes
	}
	if total < int64(len(data)) {
		t.Fatalf("stripes carried %d bytes, want >= %d", total, len(data))
	}

	// A single-stripe client completes the same read (the -stripes 1 interop
	// guarantee).
	one := c.NewClient(WithStripes(1))
	defer one.Close()
	f1, err := one.Open("vec")
	if err != nil {
		t.Fatal(err)
	}
	got1 := make([]byte, len(data))
	if err := f1.ReadvScatter(context.Background(), oddExtents(got1, 8191)); err != nil {
		t.Fatalf("single-stripe ReadvScatter: %v", err)
	}
	if !bytes.Equal(got1, data) {
		t.Fatal("single-stripe vectored read returned different bytes")
	}
}

// seqBlockServer is a fake DPSS block server that serves sequenced reads
// with no concurrency limit of its own: every request is answered from its
// own goroutine after a short hold. It tracks the peak number of reads in
// service at once, the lever the bounded-fan-out regression test asserts on.
type seqBlockServer struct {
	l    net.Listener
	disk *Disk
	hold time.Duration

	mu       sync.Mutex
	inflight int
	peak     int
}

func newSeqBlockServer(t *testing.T, hold time.Duration) *seqBlockServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &seqBlockServer{l: l, disk: NewDisk(), hold: hold}
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

func (s *seqBlockServer) serve(conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex
	for {
		msgType, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		if (msgType != msgRead2 && msgType != msgReadv) || len(payload) < 4 {
			return
		}
		s.track(1)
		go func() {
			seq, body := payload[:4:4], payload[4:]
			var (
				exts    []blockExtent
				dataset string
				err     error
			)
			if msgType == msgReadv {
				dataset, exts, err = decodeReadvRequest(body)
			} else {
				d := &decoder{buf: body}
				dataset = d.str()
				exts = []blockExtent{{block: int64(d.u64())}}
				err = d.err
			}
			resp := seq
			for _, x := range exts {
				if err != nil {
					break
				}
				var data []byte
				if data, err = s.disk.ReadBlock(dataset, x.block); err == nil {
					if x.n == 0 {
						x.n = uint32(len(data))
					}
					resp = append(resp, data[x.off:x.off+x.n]...)
				}
			}
			time.Sleep(s.hold)
			s.track(-1)
			respType := byte(msgOK2)
			if err != nil {
				respType, resp = msgError2, append(seq, err.Error()...)
			}
			wmu.Lock()
			defer wmu.Unlock()
			writeFrame(conn, respType, resp) //nolint:errcheck
		}()
	}
}

func (s *seqBlockServer) track(d int) {
	s.mu.Lock()
	s.inflight += d
	if s.inflight > s.peak {
		s.peak = s.inflight
	}
	s.mu.Unlock()
}

func (s *seqBlockServer) peakInflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// seqFile wires a File directly to a fake server (no master involved),
// pre-loading the fake's disk with the dataset's blocks.
func seqFile(t *testing.T, srv *seqBlockServer, client *Client, name string, data []byte, blockSize int) *File {
	t.Helper()
	for b := 0; b*blockSize < len(data); b++ {
		end := (b + 1) * blockSize
		if end > len(data) {
			end = len(data)
		}
		srv.disk.WriteBlock(name, int64(b), data[b*blockSize:end])
	}
	return &File{client: client, info: DatasetInfo{
		Name: name, Size: int64(len(data)), BlockSize: blockSize,
		Servers: []string{srv.l.Addr().String()},
	}}
}

// TestReadAtContextBoundedFanout is the regression test for the old
// goroutine-per-block fan-out: a 64-block read through a 2-stripe client with
// a one-request window must never have more than 2 reads in service at the
// server at once, although the read spans more batches than stripes. The fake
// holds each read open briefly and imposes no limit of its own, so any
// unbounded fan-out would be caught red-handed.
func TestReadAtContextBoundedFanout(t *testing.T) {
	const (
		blockSize = 8 << 10
		blocks    = 64
		stripes   = 2
	)
	srv := newSeqBlockServer(t, 2*time.Millisecond)
	client := NewClient("127.0.0.1:1", WithStripes(stripes), WithStripeWindow(1))
	defer client.Close()
	data := patternData(blocks * blockSize)
	f := seqFile(t, srv, client, "bounded", data, blockSize)

	got := make([]byte, len(data))
	n, err := f.ReadAtContext(context.Background(), got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, equal=%v", n, bytes.Equal(got[:n], data[:n]))
	}
	if peak := srv.peakInflight(); peak > stripes {
		t.Fatalf("peak of %d reads in service, want <= %d (stripe-bounded fan-out)", peak, stripes)
	}
	var reads int64
	for _, st := range client.StripeStats() {
		reads += st.Reads
	}
	if reads <= stripes {
		t.Fatalf("read took %d exchanges, want more than %d so the window is exercised", reads, stripes)
	}
}

// TestReadvScatterSteadyStateAllocs pins the zero-copy promise: once the
// pools are warm, a vectored read's allocation count must not scale with the
// number of blocks it touches.
func TestReadvScatterSteadyStateAllocs(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 1, DisksPerServer: 2})
	const (
		blockSize = 4 << 10
		blocks    = 256
	)
	data := patternData(blocks * blockSize)
	client := c.NewClient(WithStripes(2))
	defer client.Close()
	if _, err := c.LoadBytes(client, "allocs", data, blockSize); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open("allocs")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	exts := oddExtents(got, 4093)
	// Warm: connection dials, pool population.
	for i := 0; i < 3; i++ {
		if err := f.ReadvScatter(context.Background(), exts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := f.ReadvScatter(context.Background(), exts); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(got, data) {
		t.Fatal("steady-state vectored read returned different bytes")
	}
	// AllocsPerRun counts the whole process, and the in-process block server
	// legitimately copies each block off its disk (~3 allocs/block server
	// side). The regression this guards against — the old goroutine + frame
	// buffer + response copy per block on the CLIENT — would push this well
	// past the bound; the client scatter path itself is pinned at zero by
	// TestScatterExtentsZeroAlloc.
	if perBlock := allocs / blocks; perBlock >= 6 {
		t.Fatalf("%.1f allocs per vectored read (%.2f per block), want < 6 per block", allocs, perBlock)
	}
}

// TestScatterExtentsZeroAlloc pins the zero-copy delivery path: scattering a
// response body into caller destinations allocates nothing — bytes go from
// the reader straight into the destination slices.
func TestScatterExtentsZeroAlloc(t *testing.T) {
	body := patternData(64 << 10)
	dsts := make([][]byte, 0, 64)
	buf := make([]byte, len(body))
	for off := 0; off < len(buf); off += 1021 {
		end := off + 1021
		if end > len(buf) {
			end = len(buf)
		}
		dsts = append(dsts, buf[off:end])
	}
	r := bytes.NewReader(body)
	refresh := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if err := scatterExtents(r, dsts, refresh); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scatterExtents allocated %.1f times per call, want 0", allocs)
	}
	if !bytes.Equal(buf, body) {
		t.Fatal("scatter produced different bytes")
	}
}
