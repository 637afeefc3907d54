package dpss

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"visapult/internal/netlogger"
)

// Client is the DPSS client library: the Go equivalent of the paper's
// dpssOpen / dpssRead / dpssLSeek / dpssClose API. The client keeps a pool of
// pipelined connections per block server (stripe.go) and issues block
// requests to all servers in parallel, so a single large read engages every
// server (and every disk behind it) at once — "the speed of the client
// scales with the speed of the server, assuming the client host is powerful
// enough".
type Client struct {
	masterAddr string
	logger     *netlogger.Logger
	// compress, when positive, requests DEFLATE-compressed blocks at that
	// level (the section 5 "wire level compression" extension).
	compress int
	// opTimeout bounds every request/response exchange whose context carries
	// no deadline of its own; 0 disables the bound.
	opTimeout time.Duration
	// stripes is how many parallel connections the client keeps per block
	// server; window bounds pipelined requests in flight per stripe. See
	// WithStripes / WithStripeWindow.
	stripes int
	window  int

	mu     sync.Mutex
	master net.Conn
	pools  map[string]*stripePool
	closed bool

	bytesRead       int64
	reads           int64
	wireBytes       int64
	compressedRaw   int64
	compressedReads int64
}

// DefaultOpTimeout is the per-exchange deadline applied when neither the
// caller's context nor WithClientTimeout supplies one. A master or block
// server that stops mid-frame (wedged process, dead link with no RST) fails
// the exchange within this bound instead of blocking the caller forever.
const DefaultOpTimeout = 30 * time.Second

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientLogger attaches NetLogger instrumentation to the client.
func WithClientLogger(l *netlogger.Logger) ClientOption {
	return func(c *Client) { c.logger = l }
}

// WithClientTimeout overrides DefaultOpTimeout as the bound on exchanges
// whose context carries no deadline. d <= 0 disables the bound entirely —
// exchanges then block until the peer responds, the connection dies, or the
// caller's context fires.
func WithClientTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d <= 0 {
			d = 0
		}
		c.opTimeout = d
	}
}

// NewClient creates a client for the master at masterAddr. No connection is
// made until the first call.
func NewClient(masterAddr string, opts ...ClientOption) *Client {
	c := &Client{
		masterAddr: masterAddr,
		pools:      make(map[string]*stripePool),
		opTimeout:  DefaultOpTimeout,
		stripes:    DefaultStripes,
		window:     DefaultStripeWindow,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// masterConn lazily dials the master.
func (c *Client) masterConn() (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("dpss: client closed")
	}
	if c.master != nil {
		return c.master, nil
	}
	conn, err := net.Dial("tcp", c.masterAddr)
	if err != nil {
		return nil, fmt.Errorf("dpss: dialing master %s: %w", c.masterAddr, err)
	}
	c.master = conn
	return conn, nil
}

// masterCall performs one synchronous request/response with the master,
// bounded by the client's op timeout. An exchange that fails at the I/O level
// leaves the connection mid-frame, so it is dropped; the next call re-dials.
func (c *Client) masterCall(msgType byte, payload []byte) ([]byte, error) {
	conn, err := c.masterConn()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opTimeout > 0 {
		conn.SetDeadline(time.Now().Add(c.opTimeout)) //nolint:errcheck // the exchange below surfaces a dead conn
	}
	if err := writeFrame(conn, msgType, payload); err != nil {
		c.dropMasterLocked(conn)
		return nil, err
	}
	respType, resp, err := readFrame(conn)
	if err != nil {
		c.dropMasterLocked(conn)
		return nil, err
	}
	if respType == msgError {
		return nil, interpretError(string(resp))
	}
	return resp, nil
}

// dropMasterLocked closes and forgets the master connection after a failed
// exchange left it mid-frame. The identity check keeps a stale drop from
// tearing down a replacement dialed in the meantime.
func (c *Client) dropMasterLocked(conn net.Conn) {
	conn.Close()
	if c.master == conn {
		c.master = nil
	}
}

// interpretError maps an error string from the wire back to a sentinel error
// where possible so callers can use errors.Is.
func interpretError(msg string) error {
	switch {
	case strings.Contains(msg, ErrUnknownDataset.Error()):
		return fmt.Errorf("%w (%s)", ErrUnknownDataset, msg)
	case strings.Contains(msg, ErrDatasetExists.Error()):
		return fmt.Errorf("%w (%s)", ErrDatasetExists, msg)
	case strings.Contains(msg, ErrUnknownBlock.Error()):
		return fmt.Errorf("%w (%s)", ErrUnknownBlock, msg)
	case strings.Contains(msg, ErrAccessDenied.Error()):
		return fmt.Errorf("%w (%s)", ErrAccessDenied, msg)
	default:
		return errors.New(msg)
	}
}

// connError marks an exchange failure that left the connection mid-frame:
// the conn must be discarded, not returned to the pool.
type connError struct{ err error }

func (e *connError) Error() string { return e.err.Error() }
func (e *connError) Unwrap() error { return e.err }

// ctxPreferred surfaces the context's cancellation as the error cause when an
// I/O failure was (most likely) induced by it, so callers can errors.Is
// against context.Canceled instead of parsing deadline errors. Socket
// deadlines are set to the context's own deadline, and the netpoller can fire
// before the context's timer closes Done: a net timeout at or past the
// context deadline is therefore the context's DeadlineExceeded too.
func ctxPreferred(ctx context.Context, err error) error {
	ctxErr := ctx.Err()
	if ctxErr == nil {
		var ne net.Error
		if dl, ok := ctx.Deadline(); ok && errors.As(err, &ne) && ne.Timeout() && !time.Now().Before(dl) {
			ctxErr = context.DeadlineExceeded
		}
	}
	if ctxErr != nil {
		return fmt.Errorf("dpss: read aborted: %w", ctxErr)
	}
	return err
}

// Create registers a new dataset with the master and returns its layout.
func (c *Client) Create(name string, size int64, blockSize int) (DatasetInfo, error) {
	e := &encoder{}
	e.str(name).u64(uint64(size)).u32(uint32(blockSize))
	resp, err := c.masterCall(msgCreate, e.buf)
	if err != nil {
		return DatasetInfo{}, err
	}
	return decodeDatasetInfo(resp)
}

// Open looks a dataset up with the master and returns a File handle with
// Unix-like semantics.
func (c *Client) Open(name string) (*File, error) {
	e := &encoder{}
	e.str(name)
	resp, err := c.masterCall(msgOpen, e.buf)
	if err != nil {
		return nil, err
	}
	info, err := decodeDatasetInfo(resp)
	if err != nil {
		return nil, err
	}
	if c.logger != nil {
		c.logger.Log("DPSS_OPEN", netlogger.Str("DATASET", name), netlogger.Int64(netlogger.FieldBytes, info.Size))
	}
	return &File{client: c, info: info}, nil
}

// ListDatasets returns the master's catalog: every dataset name the cluster
// currently holds, sorted. The fabric layer uses it to build a federation-wide
// catalog view, and it doubles as a cheap liveness probe (any response proves
// the master is up).
func (c *Client) ListDatasets() ([]string, error) {
	resp, err := c.masterCall(msgList, nil)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: resp}
	n := int(d.u32())
	names := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		names = append(names, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	return names, nil
}

// Remove deletes a dataset from the cluster: its blocks are evicted from
// every stripe server (best-effort — a dark server simply keeps stale blocks
// that the catalog no longer maps) and then the master's catalog entry is
// dropped. Removing a dataset the cluster does not hold is a no-op, so the
// drain-to-empty path can re-run after a partial failure.
func (c *Client) Remove(name string) error {
	// Compatibility shim: each exchange below is still bounded by the
	// client's op timeout.
	return c.RemoveContext(context.Background(), name) //vislint:ignore ctxbackground ctx-less legacy API; see RemoveContext
}

// RemoveContext is Remove under a context: cancelling ctx aborts the eviction
// or catalog exchange in flight.
func (c *Client) RemoveContext(ctx context.Context, name string) error {
	info, err := c.Stat(name)
	if errors.Is(err, ErrUnknownDataset) {
		return nil
	}
	if err != nil {
		return err
	}
	e := &encoder{}
	e.str(name)
	// The drops go out to every server before the first is awaited.
	seen := make(map[string]bool, len(info.Servers))
	var calls []*stripeCall
	for _, addr := range info.Servers {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		if call, err := c.call(ctx, addr, msgDropDataset, e.buf); err == nil {
			calls = append(calls, call)
		}
	}
	for _, call := range calls {
		call.wait(ctx) //nolint:errcheck // best-effort eviction
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err = c.masterCall(msgRemove, e.buf)
	return err
}

// Stat returns a dataset's layout without opening it.
func (c *Client) Stat(name string) (DatasetInfo, error) {
	e := &encoder{}
	e.str(name)
	resp, err := c.masterCall(msgStat, e.buf)
	if err != nil {
		return DatasetInfo{}, err
	}
	return decodeDatasetInfo(resp)
}

// ClientStats summarizes client activity.
type ClientStats struct {
	// BytesRead is the raw (decompressed) data volume delivered to callers.
	BytesRead int64
	Reads     int64
	Servers   int
	// WireBytes is the volume that actually crossed the network for
	// compressed reads; CompressedReads counts how many block reads used the
	// wire-level compression extension.
	WireBytes       int64
	CompressedReads int64
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{
		BytesRead: c.bytesRead, Reads: c.reads, Servers: len(c.pools),
		WireBytes: c.wireBytes, CompressedReads: c.compressedReads,
	}
}

// Close tears down every connection, failing any exchange still in flight.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	var first error
	if c.master != nil {
		if err := c.master.Close(); err != nil && first == nil {
			first = err
		}
		c.master = nil
	}
	pools := make([]*stripePool, 0, len(c.pools))
	for addr, p := range c.pools {
		pools = append(pools, p)
		delete(c.pools, addr)
	}
	c.mu.Unlock()
	// Stripe teardown resolves in-flight calls (sends on their resp
	// channels), so it happens outside the client lock.
	errClosed := errors.New("dpss: client closed")
	for _, p := range pools {
		for _, s := range p.stripes {
			s.close(errClosed)
		}
	}
	return first
}

// File is an open dataset with Unix-like read semantics (the dpssRead /
// dpssLSeek of the original API), implementing io.Reader, io.ReaderAt and
// io.Seeker.
type File struct {
	client *Client
	info   DatasetInfo
	mu     sync.Mutex
	offset int64
}

// Info returns the dataset layout.
func (f *File) Info() DatasetInfo { return f.info }

// Size returns the dataset size in bytes.
func (f *File) Size() int64 { return f.info.Size }

// ReadAt reads len(p) bytes starting at offset off, fetching every involved
// block from its server in parallel. It implements io.ReaderAt, whose
// signature has no context; each block exchange is still bounded by the
// client's op timeout.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtContext(context.Background(), p, off) //vislint:ignore ctxbackground io.ReaderAt compatibility shim; see ReadAtContext
}

// ReadAtContext is ReadAt under a context: cancelling ctx aborts the block
// exchanges in flight (each blocked read fails immediately) rather than
// letting them run to completion. It is a single-extent ReadvScatter, so a
// large read is pipelined over the per-server stripe pools under a bounded
// in-flight window — never a goroutine per block.
func (f *File) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("dpss: negative offset %d", off)
	}
	if off >= f.info.Size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > f.info.Size {
		want = f.info.Size - off
	}
	if want == 0 {
		return 0, nil
	}
	ext := [1]Extent{{Off: off, Len: int(want), Dst: p[:want]}}
	if err := f.client.readvScatter(ctx, f.info, ext[:]); err != nil {
		return 0, err
	}
	if want < int64(len(p)) {
		return int(want), io.EOF
	}
	return int(want), nil
}

// Read reads from the current offset, advancing it. It implements io.Reader.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.offset
	f.mu.Unlock()
	n, err := f.ReadAt(p, off)
	f.mu.Lock()
	f.offset = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// Seek implements io.Seeker (the dpssLSeek of the original API).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var next int64
	switch whence {
	case io.SeekStart:
		next = offset
	case io.SeekCurrent:
		next = f.offset + offset
	case io.SeekEnd:
		next = f.info.Size + offset
	default:
		return 0, fmt.Errorf("dpss: bad whence %d", whence)
	}
	if next < 0 {
		return 0, fmt.Errorf("dpss: negative resulting offset %d", next)
	}
	f.offset = next
	return next, nil
}

// Close releases the handle. The client's connections stay up for other
// files.
func (f *File) Close() error { return nil }

// WriteAt stores len(p) bytes at offset off, used by the dataset loader. The
// write must be block-aligned except for the final partial block. It
// implements io.WriterAt, whose signature has no context; each block exchange
// is still bounded by the client's op timeout.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	return f.WriteAtContext(context.Background(), p, off) //vislint:ignore ctxbackground io.WriterAt compatibility shim; see WriteAtContext
}

// WriteAtContext is WriteAt under a context: cancelling ctx aborts the block
// exchanges in flight rather than waiting for their acknowledgements. It is
// WriteAtProgress without a progress feed.
func (f *File) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	return f.WriteAtProgress(ctx, p, off, nil)
}

// WriteAtProgress stores len(p) bytes at the block-aligned offset off. Every
// block is issued over its server's stripe pool, up to the in-flight window,
// before the first acknowledgement is awaited; the acks are then taken in
// block order, and after each one progress (when non-nil) receives the length
// of the acknowledged prefix of p. The returned count is that prefix's
// length. p is not retained: every block is copied out before the call
// returns.
func (f *File) WriteAtProgress(ctx context.Context, p []byte, off int64, progress func(written int64)) (int, error) {
	bs := f.info.BlockSize
	if off%int64(bs) != 0 {
		return 0, fmt.Errorf("dpss: write offset %d not block-aligned", off)
	}
	reqBuf := reqBufPool.Get().(*[]byte)
	defer reqBufPool.Put(reqBuf)
	first := off / int64(bs)
	written := 0
	err := pipelineCalls(ctx, (len(p)+bs-1)/bs, func(i int) (*stripeCall, error) {
		block := first + int64(i)
		e := encoder{buf: (*reqBuf)[:0]}
		e.str(f.info.Name).u64(uint64(block)).bytes(p[i*bs : min((i+1)*bs, len(p))])
		*reqBuf = e.buf
		return f.client.call(ctx, f.info.ServerFor(block), msgWriteBlock, *reqBuf)
	}, func(i int, _ []byte) error {
		written = min((i+1)*bs, len(p))
		if progress != nil {
			progress(int64(written))
		}
		return nil
	})
	return written, err
}
