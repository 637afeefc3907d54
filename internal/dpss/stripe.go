package dpss

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the client's one block-server connection type (see
// protocol.go for the sequenced wire format). Each block server gets a
// stripePool of persistent connections, and every stripe pipelines
// seq-correlated requests (reads, writes, drops and compressed reads) under a
// bounded in-flight window. A connection that fails mid-exchange is torn
// down and the next use of its stripe dials a replacement.

// DefaultStripes is how many parallel connections the client keeps per block
// server unless WithStripes overrides it.
const DefaultStripes = 4

// DefaultStripeWindow is the default bound on pipelined requests in flight
// per stripe.
const DefaultStripeWindow = 32

// WithStripes sets how many parallel connections ("stripes") the client
// keeps to each block server (minimum 1) — the paper's parallel-socket
// striped transfers. Every block request (read, write, drop, compressed
// read) rides the stripes.
func WithStripes(n int) ClientOption {
	return func(c *Client) {
		if n >= 1 {
			c.stripes = n
		}
	}
}

// WithStripeWindow bounds how many pipelined requests one stripe may have in
// flight (minimum 1). The window replaces the old goroutine-per-block
// fan-out: a full window blocks the issuer, so a large read keeps at most
// stripes x window exchanges outstanding per server.
func WithStripeWindow(n int) ClientOption {
	return func(c *Client) {
		if n >= 1 {
			c.window = n
		}
	}
}

// stripePool is the set of stripe connections to one block server.
type stripePool struct {
	c    *Client
	addr string

	stripes []*stripe     // fixed at construction
	next    atomic.Uint32 // round-robin batch cursor
}

// stripe is one persistent connection slot in a pool: the conn itself (re-
// dialed after failures), its in-flight window, and transfer counters.
type stripe struct {
	pool *stripePool
	idx  int

	window chan struct{} // in-flight request slots

	connMu sync.Mutex  // guards cur
	cur    *stripeConn // guarded by connMu

	bytes atomic.Int64 // block bytes delivered on this stripe
	reads atomic.Int64 // exchanges completed
	fails atomic.Int64 // conns torn down mid-exchange
}

// stripeConn is one live connection of a stripe with its pipelining state.
// A fresh stripeConn replaces a dead one; the pending map never migrates, so
// a killed conn's bookkeeping cannot leak into its replacement.
type stripeConn struct {
	s    *stripe
	conn net.Conn

	wmu sync.Mutex // serializes request frame writes

	mu      sync.Mutex
	cond    *sync.Cond             // signalled when pending grows or the conn dies (guarded by mu)
	pending map[uint32]*stripeCall // guarded by mu
	nextSeq uint32                 // guarded by mu
	dead    bool                   // guarded by mu
}

// stripeCall is one in-flight pipelined request.
type stripeCall struct {
	sc  *stripeConn
	seq uint32
	// dsts are the scatter destinations, in wire order. delivering marks the
	// reader actively writing into them; cancelled marks a withdrawn call
	// whose late response must be drained without touching them. All three
	// are guarded by stripeConn.mu.
	dsts       [][]byte
	delivering bool
	cancelled  bool
	// body collects the response of a call with nil dsts (a write ack, a
	// drop's count, a compressed block). The reader sets it before the call
	// resolves; read it only after wait returns nil.
	body []byte
	resp chan error    // buffered (cap 1); receives the call's resolution exactly once
	done chan struct{} // closed when the call resolves
}

// poolFor returns (creating if needed) the stripe pool for addr.
func (c *Client) poolFor(addr string) (*stripePool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("dpss: client closed")
	}
	if p, ok := c.pools[addr]; ok {
		return p, nil
	}
	n := c.stripes
	if n < 1 {
		n = 1
	}
	w := c.window
	if w < 1 {
		w = 1
	}
	p := &stripePool{c: c, addr: addr, stripes: make([]*stripe, n)}
	for i := range p.stripes {
		p.stripes[i] = &stripe{pool: p, idx: i, window: make(chan struct{}, w)}
	}
	c.pools[addr] = p
	return p, nil
}

// pick returns the next stripe round-robin.
func (p *stripePool) pick() *stripe {
	return p.stripes[int(p.next.Add(1))%len(p.stripes)]
}

// connect returns the stripe's live connection, dialing a replacement when a
// previous failure poisoned it. Every fresh conn gets a reader goroutine that
// pumps responses until the conn dies.
func (s *stripe) connect(ctx context.Context) (*stripeConn, error) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.cur != nil {
		return s.cur, nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", s.pool.addr)
	if err != nil {
		return nil, fmt.Errorf("dpss: dialing block server %s (stripe %d): %w", s.pool.addr, s.idx, err)
	}
	sc := &stripeConn{
		s:       s,
		conn:    conn,
		pending: make(map[uint32]*stripeCall),
	}
	sc.cond = sync.NewCond(&sc.mu)
	s.cur = sc
	go sc.readLoop()
	return sc, nil
}

// dropConn detaches a dead conn from its stripe so the next use re-dials.
// The identity check keeps a stale drop from tearing down a replacement.
func (s *stripe) dropConn(sc *stripeConn) {
	s.connMu.Lock()
	if s.cur == sc {
		s.cur = nil
	}
	s.connMu.Unlock()
}

// release returns one in-flight window slot.
func (s *stripe) release() { <-s.window }

// start acquires a window slot and launches one pipelined exchange. The
// returned call owns the slot until it resolves; on error the slot is
// already released or owned by a withdrawn call.
func (s *stripe) start(ctx context.Context, msgType byte, payload []byte, dsts [][]byte) (*stripeCall, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case s.window <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	sc, err := s.connect(ctx)
	if err != nil {
		s.release()
		return nil, err
	}
	return sc.send(ctx, msgType, payload, dsts)
}

// send registers a pipelined call and writes its request frame (seq prefix +
// payload) under the conn's write lock with a write deadline, so a wedged
// peer cannot pin the sender, and a fired ctx aborts a write the peer has
// stopped draining. Other calls share the conn, so a frame the ctx cut short
// is finished in the background (see finishFrame) rather than killing the
// conn under them, and the call is withdrawn like a cancelled wait. The
// payload buffer is fully consumed before send returns and may be reused by
// the caller. On error the call's window slot is no longer the caller's.
func (sc *stripeConn) send(ctx context.Context, msgType byte, payload []byte, dsts [][]byte) (*stripeCall, error) {
	s := sc.s
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		s.release()
		return nil, &connError{errors.New("dpss: stripe connection closed")}
	}
	sc.nextSeq++
	call := &stripeCall{
		sc: sc, seq: sc.nextSeq, dsts: dsts,
		resp: make(chan error, 1), done: make(chan struct{}),
	}
	sc.pending[call.seq] = call
	sc.cond.Signal()
	sc.mu.Unlock()

	sc.wmu.Lock()
	deadline, ok := ctx.Deadline()
	if !ok && s.pool.c.opTimeout > 0 {
		deadline, ok = time.Now().Add(s.pool.c.opTimeout), true
	}
	if ok {
		sc.conn.SetWriteDeadline(deadline) //nolint:errcheck // the write below surfaces a dead conn
	} else {
		sc.conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
	}
	var poisoned chan struct{}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		poisoned = make(chan struct{})
		stop = context.AfterFunc(ctx, func() {
			sc.conn.SetWriteDeadline(time.Unix(1, 0)) //nolint:errcheck
			close(poisoned)
		})
	}
	var hdr [9]byte
	hdr[0] = msgType
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)+4))
	binary.BigEndian.PutUint32(hdr[5:9], call.seq)
	frame := net.Buffers{hdr[:], payload}
	_, err := frame.WriteTo(sc.conn) // consumes frame as it writes
	if !stop() {
		// The poison may land after the write finished; let it land before
		// the next sender arms its own deadline.
		<-poisoned
	}
	if err == nil {
		sc.wmu.Unlock()
		return call, nil
	}
	if cerr := ctxPreferred(ctx, err); cerr != err {
		go sc.finishFrame(bytes.Join(frame, nil))
		call.withdraw()
		return nil, cerr
	}
	sc.wmu.Unlock()
	err = &connError{err}
	sc.kill(err)
	return nil, err
}

// finishFrame writes rest, the unsent tail of a request frame whose sender's
// ctx fired mid-write, so the stream stays in frame for the conn's other
// calls; only a failure of this write kills the conn. It runs holding the
// write lock the sender took, and releases it.
func (sc *stripeConn) finishFrame(rest []byte) {
	defer sc.wmu.Unlock()
	var deadline time.Time
	if d := sc.s.pool.c.opTimeout; d > 0 {
		deadline = time.Now().Add(d)
	}
	sc.conn.SetWriteDeadline(deadline) //nolint:errcheck // the write below surfaces a dead conn
	if _, err := sc.conn.Write(rest); err != nil {
		sc.kill(&connError{err})
	}
}

// readLoop is the stripe's response pump: it sleeps until a call is pending
// (responses only ever follow requests, so an idle conn arms no deadline and
// burns no CPU), then reads one response frame and resolves the matching
// call, scattering block data straight into the caller's buffers. Any I/O or
// protocol failure kills the conn and fails every pending call; the next use
// of the stripe dials a replacement.
func (sc *stripeConn) readLoop() {
	c := sc.s.pool.c
	var hdr [9]byte
	for {
		if !sc.awaitPending() {
			return
		}
		// The whole header must arrive within one op timeout once requests
		// are outstanding; deliver refreshes the deadline per extent for
		// large scattered payloads.
		if c.opTimeout > 0 {
			sc.conn.SetReadDeadline(time.Now().Add(c.opTimeout)) //nolint:errcheck // the read below surfaces a dead conn
		} else {
			sc.conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		}
		if _, err := io.ReadFull(sc.conn, hdr[:]); err != nil {
			sc.kill(&connError{err})
			return
		}
		msgType := hdr[0]
		n := binary.BigEndian.Uint32(hdr[1:5])
		seq := binary.BigEndian.Uint32(hdr[5:9])
		if n < 4 || n > maxFrame {
			sc.kill(&connError{fmt.Errorf("%w: response frame of %d bytes", ErrProtocol, n)})
			return
		}
		remain := int64(n) - 4
		sc.mu.Lock()
		call := sc.pending[seq]
		var cancelled bool
		if call != nil {
			call.delivering = true
			cancelled = call.cancelled
		}
		sc.mu.Unlock()
		if call == nil {
			sc.kill(&connError{fmt.Errorf("%w: response for unknown request %d", ErrProtocol, seq)})
			return
		}
		callErr, fatal := sc.deliver(call, msgType, remain, cancelled)
		sc.finish(call, callErr)
		if fatal != nil {
			sc.kill(&connError{fatal})
			return
		}
	}
}

// awaitPending blocks until a call is pending or the conn is dead, reporting
// whether the pump should keep reading.
func (sc *stripeConn) awaitPending() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for len(sc.pending) == 0 && !sc.dead {
		sc.cond.Wait()
	}
	return !sc.dead
}

// deliver consumes one response body. callErr is the call's resolution;
// fatal, when non-nil, means the conn is out of sync or broken and must die.
// A server-side error reply (msgError2) resolves only its call — the conn
// stays healthy for the other in-flight requests.
func (sc *stripeConn) deliver(call *stripeCall, msgType byte, remain int64, cancelled bool) (callErr, fatal error) {
	conn, c := sc.conn, sc.s.pool.c
	refresh := func() {
		if c.opTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.opTimeout)) //nolint:errcheck // the reads below surface a dead conn
		}
	}
	if cancelled {
		// The caller withdrew: drain the late response so the conn stays
		// usable for the other in-flight calls, touching nothing of the
		// caller's buffers.
		if _, err := io.CopyN(io.Discard, conn, remain); err != nil {
			return err, err
		}
		return context.Canceled, nil
	}
	switch {
	case msgType == msgOK2 && call.dsts == nil:
		refresh()
		call.body = make([]byte, remain)
		if _, err := io.ReadFull(conn, call.body); err != nil {
			return err, err
		}
		sc.s.bytes.Add(remain)
		return nil, nil
	case msgType == msgOK2:
		var want int64
		for _, d := range call.dsts {
			want += int64(len(d))
		}
		if remain != want {
			err := fmt.Errorf("%w: scatter response of %d bytes, requested %d", ErrProtocol, remain, want)
			return err, err
		}
		if err := scatterExtents(conn, call.dsts, refresh); err != nil {
			return err, err
		}
		sc.s.bytes.Add(want)
		return nil, nil
	case msgType == msgError2:
		if remain > 1<<20 {
			err := fmt.Errorf("%w: oversized error reply (%d bytes)", ErrProtocol, remain)
			return err, err
		}
		msg := make([]byte, remain)
		if _, err := io.ReadFull(conn, msg); err != nil {
			return err, err
		}
		return interpretError(string(msg)), nil
	default:
		err := fmt.Errorf("%w: unexpected response type %d", ErrProtocol, msgType)
		return err, err
	}
}

// finish resolves one call: it leaves the pending set, its waiter receives
// err, and its window slot returns to the stripe.
func (sc *stripeConn) finish(call *stripeCall, err error) {
	sc.mu.Lock()
	delete(sc.pending, call.seq)
	sc.mu.Unlock()
	close(call.done)
	call.resp <- err
	sc.s.reads.Add(1)
	sc.s.release()
}

// kill marks the conn dead, closes it, detaches it from its stripe and fails
// every pending call. A call the reader is actively delivering into is left
// for the reader itself to resolve — its in-progress scatter fails when the
// closed conn's read errors — so no two goroutines ever race on one call's
// buffers.
func (sc *stripeConn) kill(err error) {
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		return
	}
	sc.dead = true
	var victims []*stripeCall
	for seq, call := range sc.pending {
		if call.delivering {
			continue
		}
		delete(sc.pending, seq)
		victims = append(victims, call)
	}
	sc.cond.Broadcast()
	sc.mu.Unlock()
	sc.conn.Close()
	sc.s.dropConn(sc)
	for _, call := range victims {
		close(call.done)
		call.resp <- err
		sc.s.release()
	}
	sc.s.fails.Add(1)
}

// wait blocks for the call's resolution; on ctx cancellation the call is
// withdrawn and wait returns the ctx error.
func (call *stripeCall) wait(ctx context.Context) error {
	select {
	case err := <-call.resp:
		return err
	case <-ctx.Done():
	}
	call.withdraw()
	return ctx.Err()
}

// withdraw abandons the call: if its response is not yet being delivered it
// is tombstoned (the reader later drains the bytes without touching the
// caller's buffers); if delivery has begun, the conn is poisoned and
// withdraw blocks until the delivery attempt finishes. Either way, once
// withdraw returns no goroutine will write into the call's destination
// slices.
func (call *stripeCall) withdraw() {
	sc := call.sc
	sc.mu.Lock()
	if cur, ok := sc.pending[call.seq]; ok && cur == call {
		if !call.delivering {
			call.cancelled = true
			call.dsts = nil
			sc.mu.Unlock()
			return
		}
		sc.mu.Unlock()
		// Delivery raced the cancellation: poison the read so a mid-scatter
		// reader aborts promptly, then wait for it to let go of the buffers.
		// (The pump re-arms the deadline before its next header read, so a
		// poison that lands after a completed delivery is harmless.)
		sc.conn.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck
		<-call.done
		<-call.resp
		return
	}
	sc.mu.Unlock()
	// Resolved before the lock; drain the slot's send.
	<-call.resp
}

// call starts one sequenced exchange whose response body is collected (nil
// dsts) with the block server at addr, on the next stripe of its pool.
func (c *Client) call(ctx context.Context, addr string, msgType byte, payload []byte) (*stripeCall, error) {
	p, err := c.poolFor(addr)
	if err != nil {
		return nil, err
	}
	return p.pick().start(ctx, msgType, payload, nil)
}

// pipelineCalls starts n collected-body calls, start(i) issuing the i-th, and
// only then waits for them in issue order, handing each body to done. The
// in-flight windows bound how many are outstanding, so a long run never
// waits a round trip per call. It returns at the first failure, when done has
// seen exactly the calls before it; calls still in flight resolve on their
// own, as they write into no caller buffer.
func pipelineCalls(ctx context.Context, n int, start func(i int) (*stripeCall, error), done func(i int, body []byte) error) error {
	calls := make([]*stripeCall, 0, n)
	var startErr error
	for i := 0; i < n; i++ {
		call, err := start(i)
		if err != nil {
			startErr = err
			break
		}
		calls = append(calls, call)
	}
	for i, call := range calls {
		if err := call.wait(ctx); err != nil {
			return err
		}
		if err := done(i, call.body); err != nil {
			return err
		}
	}
	return startErr
}

// close tears down the stripe's live conn (if any), failing its in-flight
// calls.
func (s *stripe) close(err error) {
	s.connMu.Lock()
	sc := s.cur
	s.cur = nil
	s.connMu.Unlock()
	if sc != nil {
		sc.kill(err)
	}
}

// StripeStat describes one stripe connection's activity, for the per-stripe
// throughput gauges in visapultd's /metrics and dpssctl's status columns.
type StripeStat struct {
	Server    string `json:"server"`
	Stripe    int    `json:"stripe"`
	Connected bool   `json:"connected"`
	Bytes     int64  `json:"bytes"`    // response bytes delivered on this stripe
	Reads     int64  `json:"reads"`    // exchanges completed on this stripe
	Failures  int64  `json:"failures"` // conns torn down mid-exchange
}

// StripeStats snapshots per-stripe transfer counters for every block server
// the client has used, sorted by server address then stripe index.
func (c *Client) StripeStats() []StripeStat {
	c.mu.Lock()
	pools := make([]*stripePool, 0, len(c.pools))
	for _, p := range c.pools {
		pools = append(pools, p)
	}
	c.mu.Unlock()
	out := make([]StripeStat, 0, len(pools)*DefaultStripes)
	for _, p := range pools {
		for _, s := range p.stripes {
			s.connMu.Lock()
			connected := s.cur != nil
			s.connMu.Unlock()
			out = append(out, StripeStat{
				Server: p.addr, Stripe: s.idx, Connected: connected,
				Bytes: s.bytes.Load(), Reads: s.reads.Load(), Failures: s.fails.Load(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Server != out[j].Server {
			return out[i].Server < out[j].Server
		}
		return out[i].Stripe < out[j].Stripe
	})
	return out
}
