// The dispatch wire: the binary framing the scheduler's dispatcher and its
// workers speak (the control protocol of pkg/visapult, as opposed to the
// back-end/viewer protocol in framing.go). Cold messages (run spec, terminal
// result, worker hello) are JSON payloads *inside* binary frames; the hot
// ones — per-frame metrics, seq-correlated viewer control ops, raw
// slab-texture payloads — are fixed-layout:
//
//	frame  := type(1) | length(4, big-endian) | crc32c(4) | payload
//
// The CRC is Castagnoli (hardware-accelerated on every platform this runs
// on) over the payload only. Writes go out through net.Buffers, so a frame
// header plus a quarter-megabyte texture is one writev with zero copies and
// zero steady-state allocations; reads land in a single reused buffer valid
// until the next ReadFrame. Encode scratch space comes from a sync.Pool
// (GetDispatchBuf / PutDispatchBuf).
//
// Every connection opens with the 4-byte magic "VPD2" from the dispatcher,
// then one request frame: DRun starts a run, DPing asks for the worker's
// DPong hello.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
)

// DispatchMagic is the 4-byte preamble a dispatcher sends before its first
// frame; a worker drops any connection that opens with anything else.
const DispatchMagic = "VPD2"

// DType identifies the kind of payload carried by one dispatch frame.
type DType byte

// Dispatch frame types. Client -> worker: DRun or DPing (first frame), DCtrl.
// Worker -> client: DFrame, DCtrlAck, DSlab, DResult, DError, DPong.
const (
	// DRun is the run request: flags, run name, and the RunSpec as JSON.
	DRun DType = 1
	// DCtrl is a control op: cancel, or a seq-correlated viewer operation.
	DCtrl DType = 2
	// DFrame is one fixed-layout per-frame metric.
	DFrame DType = 3
	// DCtrlAck answers one seq-correlated viewer operation.
	DCtrlAck DType = 4
	// DSlab carries one rendered slab payload pair (light metadata + raw
	// heavy texture) for dispatcher-side frame-cache seeding.
	DSlab DType = 5
	// DResult is the terminal success reply: a JSON-encoded run summary.
	DResult DType = 6
	// DError is the terminal failure reply: flags (busy) + message.
	DError DType = 7
	// DPing asks the worker for its hello; the payload is empty.
	DPing DType = 8
	// DPong answers DPing: the worker's hello as JSON.
	DPong DType = 9
)

// String implements fmt.Stringer.
func (t DType) String() string {
	switch t {
	case DRun:
		return "RUN"
	case DCtrl:
		return "CTRL"
	case DFrame:
		return "FRAME"
	case DCtrlAck:
		return "CTRL_ACK"
	case DSlab:
		return "SLAB"
	case DResult:
		return "RESULT"
	case DError:
		return "ERROR"
	case DPing:
		return "PING"
	case DPong:
		return "PONG"
	default:
		return fmt.Sprintf("DType(%d)", byte(t))
	}
}

// dispatchHeaderSize is the fixed per-frame overhead: type (1), length (4),
// CRC-32C (4).
const dispatchHeaderSize = 9

// MaxDispatchPayload bounds a single dispatch frame, protecting the reader
// from corrupted length prefixes. 64 MiB comfortably exceeds any slab
// payload while keeping a hostile prefix from committing gigabytes.
const MaxDispatchPayload = 64 << 20

// castagnoli is the CRC-32C table shared by every dispatch frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteDispatchMagic sends the connection preamble.
func WriteDispatchMagic(w io.Writer) error {
	_, err := io.WriteString(w, DispatchMagic)
	return err
}

// dispatchBufPoolMax bounds the capacity of buffers returned to the pool, so
// one oversized encode does not pin megabytes for the process lifetime.
const dispatchBufPoolMax = 1 << 20

// dispatchBufPool recycles encode scratch buffers across frames; the
// steady-state dispatch path allocates nothing.
var dispatchBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetDispatchBuf returns a pooled, empty encode buffer. Return it with
// PutDispatchBuf once the encoded bytes are on the wire.
func GetDispatchBuf() *[]byte {
	return dispatchBufPool.Get().(*[]byte)
}

// PutDispatchBuf recycles an encode buffer obtained from GetDispatchBuf.
// Buffers grown past a fixed bound are dropped instead of pooled.
func PutDispatchBuf(b *[]byte) {
	if b == nil || cap(*b) > dispatchBufPoolMax {
		return
	}
	*b = (*b)[:0]
	dispatchBufPool.Put(b)
}

// DispatchConn frames dispatch messages onto an underlying byte stream.
// WriteFrame and ReadFrame are individually safe for concurrent use; one
// writer goroutine and one reader goroutine may operate simultaneously.
// Deadlines belong to the owner of the underlying net.Conn — this type only
// moves bytes.
type DispatchConn struct {
	wmu sync.Mutex
	w   io.Writer
	// whdr, vec and bufs are the write path's reusable state. vec is rebuilt
	// from scratch on every frame; bufs is the net.Buffers view WriteTo
	// consumes — a persistent field rather than a local so the slice header
	// does not escape to the heap on every frame. guarded by wmu
	whdr [dispatchHeaderSize]byte
	vec  [][]byte
	bufs net.Buffers

	rmu  sync.Mutex
	r    *bufio.Reader
	rhdr [dispatchHeaderSize]byte // guarded by rmu; a field so io.ReadFull's interface call does not heap-allocate a local header per frame
	rbuf []byte                   // guarded by rmu; reused across ReadFrame calls
}

// NewDispatchConn wraps a byte stream in the dispatch framing. r may already
// be buffered; w should be the raw connection so vectored writes reach
// writev.
func NewDispatchConn(r io.Reader, w io.Writer) *DispatchConn {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	return &DispatchConn{w: w, r: br, vec: make([][]byte, 0, 4)}
}

// WriteFrame frames the concatenation of the payload segments and sends it
// as one vectored write: header plus all segments in a single writev when
// the underlying writer is a net.Conn, with no intermediate copy of any
// segment (this is what makes slab delivery zero-copy on the send side).
func (c *DispatchConn) WriteFrame(t DType, segs ...[]byte) error {
	n := 0
	crc := uint32(0)
	for _, s := range segs {
		n += len(s)
		crc = crc32.Update(crc, castagnoli, s)
	}
	if n > MaxDispatchPayload {
		return fmt.Errorf("wire: dispatch payload of %d bytes exceeds frame limit", n)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.whdr[0] = byte(t)
	binary.BigEndian.PutUint32(c.whdr[1:], uint32(n))
	binary.BigEndian.PutUint32(c.whdr[5:], crc)
	c.vec = append(c.vec[:0], c.whdr[:])
	c.vec = append(c.vec, segs...)
	c.bufs = net.Buffers(c.vec)
	if _, err := c.bufs.WriteTo(c.w); err != nil {
		return fmt.Errorf("wire: write %v frame: %w", t, err)
	}
	// Drop the payload references so the write path does not pin the last
	// frame's segments (slab textures are large) until the next send.
	c.bufs = nil
	for i := range c.vec {
		c.vec[i] = nil
	}
	return nil
}

// ReadFrame reads the next frame and validates its checksum. The returned
// payload aliases the connection's reusable read buffer: it is valid only
// until the next ReadFrame call, and callers that retain it must copy.
// A corrupt or oversized length prefix errors before any allocation.
func (c *DispatchConn) ReadFrame() (DType, []byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: read dispatch header: %w", err)
	}
	t := DType(c.rhdr[0])
	n := binary.BigEndian.Uint32(c.rhdr[1:])
	want := binary.BigEndian.Uint32(c.rhdr[5:])
	if n > MaxDispatchPayload {
		return 0, nil, fmt.Errorf("wire: dispatch frame of %d bytes exceeds limit", n)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	payload := c.rbuf[:n]
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: read %v payload: %w", t, err)
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return 0, nil, ErrChecksum
	}
	return t, payload, nil
}

// ---------------------------------------------------------------------------
// Message encodings. Hot messages are fixed-layout; Append* methods write
// into caller-supplied (usually pooled) buffers so the steady-state path
// allocates nothing.

// appendU32 / appendU64 are the little encode helpers every message shares.
func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendString appends a u32 length prefix plus the string bytes.
func appendString(buf []byte, s string) []byte {
	buf = appendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

// reader is a bounds-checked cursor over one decoded payload.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: dispatch %s at offset %d of %d", ErrTruncated, what, r.off, len(r.data))
	}
}

func (r *reader) u8(what string) byte {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) str(what string) string {
	n := r.u32(what)
	if r.err != nil {
		return ""
	}
	if n > uint32(len(r.data)-r.off) {
		r.fail(what)
		return ""
	}
	v := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return v
}

// DispatchRun is the run request: the one cold client->worker message.
// The spec travels as JSON — it is sent once per run and its schema already
// exists; only the framing around it needs to be binary.
type DispatchRun struct {
	// WantSlabs asks the worker to stream each rendered slab payload pair
	// back as DSlab frames, so the dispatcher can seed its own frame cache.
	WantSlabs bool
	// Name is the dispatcher's name for the run.
	Name string
	// Spec is the JSON-encoded RunSpec.
	Spec []byte
}

// runFlagWantSlabs marks a DispatchRun requesting slab delivery.
const runFlagWantSlabs = 1

// Append encodes the message onto buf.
func (m *DispatchRun) Append(buf []byte) []byte {
	var flags byte
	if m.WantSlabs {
		flags |= runFlagWantSlabs
	}
	buf = append(buf, flags)
	buf = appendString(buf, m.Name)
	return append(buf, m.Spec...)
}

// Decode parses a DRun payload. The Spec slice aliases data.
func (m *DispatchRun) Decode(data []byte) error {
	r := reader{data: data}
	flags := r.u8("run flags")
	m.Name = r.str("run name")
	if r.err != nil {
		return r.err
	}
	m.WantSlabs = flags&runFlagWantSlabs != 0
	m.Spec = data[r.off:]
	return nil
}

// DispatchFrame is the fixed-layout per-frame metric: the wire encoding of the
// scheduler's FrameMetric (backend.FrameStats). Durations are nanoseconds.
type DispatchFrame struct {
	Frame, PE                        int
	LoadNS, RenderNS, SendNS, CopyNS int64
	BytesLoaded, BytesSent           int64
	CacheHit                         bool
}

// dispatchFrameSize is the encoded size: two i32, six i64, one flag byte.
const dispatchFrameSize = 2*4 + 6*8 + 1

// Append encodes the metric onto buf (exactly dispatchFrameSize bytes).
func (m *DispatchFrame) Append(buf []byte) []byte {
	buf = appendU32(buf, uint32(int32(m.Frame)))
	buf = appendU32(buf, uint32(int32(m.PE)))
	buf = appendU64(buf, uint64(m.LoadNS))
	buf = appendU64(buf, uint64(m.RenderNS))
	buf = appendU64(buf, uint64(m.SendNS))
	buf = appendU64(buf, uint64(m.CopyNS))
	buf = appendU64(buf, uint64(m.BytesLoaded))
	buf = appendU64(buf, uint64(m.BytesSent))
	var flags byte
	if m.CacheHit {
		flags = 1
	}
	return append(buf, flags)
}

// Decode parses a DFrame payload.
func (m *DispatchFrame) Decode(data []byte) error {
	if len(data) < dispatchFrameSize {
		return fmt.Errorf("%w: frame metric %d bytes, need %d", ErrTruncated, len(data), dispatchFrameSize)
	}
	r := reader{data: data}
	m.Frame = int(int32(r.u32("frame")))
	m.PE = int(int32(r.u32("pe")))
	m.LoadNS = int64(r.u64("load"))
	m.RenderNS = int64(r.u64("render"))
	m.SendNS = int64(r.u64("send"))
	m.CopyNS = int64(r.u64("copy"))
	m.BytesLoaded = int64(r.u64("bytesLoaded"))
	m.BytesSent = int64(r.u64("bytesSent"))
	m.CacheHit = r.u8("flags")&1 != 0
	return r.err
}

// DispatchCtrlOp is the operation selector of a DCtrl frame.
type DispatchCtrlOp byte

// Control operations. Cancel aborts the run; the viewer ops are
// seq-correlated and answered by a DCtrlAck echoing the sequence number.
const (
	DCtrlCancel  DispatchCtrlOp = 1
	DCtrlAttach  DispatchCtrlOp = 2
	DCtrlDetach  DispatchCtrlOp = 3
	DCtrlViewers DispatchCtrlOp = 4
)

// DispatchCtrl is one control op on a live dispatched run.
type DispatchCtrl struct {
	Op  DispatchCtrlOp
	Seq int64
	// Viewer names the fan-out viewer an attach/detach targets.
	Viewer string
}

// Append encodes the control op onto buf.
func (m *DispatchCtrl) Append(buf []byte) []byte {
	buf = append(buf, byte(m.Op))
	buf = appendU64(buf, uint64(m.Seq))
	return appendString(buf, m.Viewer)
}

// Decode parses a DCtrl payload.
func (m *DispatchCtrl) Decode(data []byte) error {
	r := reader{data: data}
	m.Op = DispatchCtrlOp(r.u8("ctrl op"))
	m.Seq = int64(r.u64("ctrl seq"))
	m.Viewer = r.str("ctrl viewer")
	return r.err
}

// DispatchViewer is the fixed-layout delivery record of one fan-out viewer,
// carried inside a DCtrlAck answering a viewers op.
type DispatchViewer struct {
	ID string
	// AttachedUnixNano is the attach time (0 for the zero time).
	AttachedUnixNano int64
	StartFrame       int
	FramesSent       int
	FramesDropped    int
	QueueDepth       int
	BytesSent        int64
	Detached         bool
	Error            string
}

// DispatchCtrlAck answers one seq-correlated viewer operation.
type DispatchCtrlAck struct {
	Seq int64
	// NoFanout reports the run has no live fan-out yet (the retryable
	// "not live yet" signal coalesced followers poll on).
	NoFanout bool
	Err      string
	Viewers  []DispatchViewer
}

// ackFlagNoFanout marks a DispatchCtrlAck whose run has no live fan-out.
const ackFlagNoFanout = 1

// Append encodes the ack onto buf.
func (m *DispatchCtrlAck) Append(buf []byte) []byte {
	buf = appendU64(buf, uint64(m.Seq))
	var flags byte
	if m.NoFanout {
		flags |= ackFlagNoFanout
	}
	buf = append(buf, flags)
	buf = appendString(buf, m.Err)
	buf = appendU32(buf, uint32(len(m.Viewers)))
	for _, v := range m.Viewers {
		buf = appendString(buf, v.ID)
		buf = appendU64(buf, uint64(v.AttachedUnixNano))
		buf = appendU32(buf, uint32(int32(v.StartFrame)))
		buf = appendU32(buf, uint32(int32(v.FramesSent)))
		buf = appendU32(buf, uint32(int32(v.FramesDropped)))
		buf = appendU32(buf, uint32(int32(v.QueueDepth)))
		buf = appendU64(buf, uint64(v.BytesSent))
		var d byte
		if v.Detached {
			d = 1
		}
		buf = append(buf, d)
		buf = appendString(buf, v.Error)
	}
	return buf
}

// Decode parses a DCtrlAck payload.
func (m *DispatchCtrlAck) Decode(data []byte) error {
	r := reader{data: data}
	m.Seq = int64(r.u64("ack seq"))
	flags := r.u8("ack flags")
	m.Err = r.str("ack err")
	n := r.u32("ack viewer count")
	if r.err != nil {
		return r.err
	}
	m.NoFanout = flags&ackFlagNoFanout != 0
	// Each record is at least 34 bytes; reject counts the payload cannot
	// hold before allocating for them.
	if int64(n)*34 > int64(len(data)-r.off) {
		return fmt.Errorf("%w: ack promises %d viewer records in %d bytes", ErrTruncated, n, len(data)-r.off)
	}
	m.Viewers = nil
	if n > 0 {
		m.Viewers = make([]DispatchViewer, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		var v DispatchViewer
		v.ID = r.str("viewer id")
		v.AttachedUnixNano = int64(r.u64("viewer attached"))
		v.StartFrame = int(int32(r.u32("viewer start")))
		v.FramesSent = int(int32(r.u32("viewer sent")))
		v.FramesDropped = int(int32(r.u32("viewer dropped")))
		v.QueueDepth = int(int32(r.u32("viewer queue")))
		v.BytesSent = int64(r.u64("viewer bytes"))
		v.Detached = r.u8("viewer detached")&1 != 0
		v.Error = r.str("viewer error")
		if r.err != nil {
			return r.err
		}
		m.Viewers = append(m.Viewers, v)
	}
	return r.err
}

// DispatchError is the terminal failure reply.
type DispatchError struct {
	// Busy marks a rejection by the worker's capacity gate, not a run
	// failure.
	Busy bool
	Msg  string
}

// errFlagBusy marks a capacity rejection.
const errFlagBusy = 1

// Append encodes the error onto buf.
func (m *DispatchError) Append(buf []byte) []byte {
	var flags byte
	if m.Busy {
		flags |= errFlagBusy
	}
	buf = append(buf, flags)
	return append(buf, m.Msg...)
}

// Decode parses a DError payload.
func (m *DispatchError) Decode(data []byte) error {
	r := reader{data: data}
	flags := r.u8("error flags")
	if r.err != nil {
		return r.err
	}
	m.Busy = flags&errFlagBusy != 0
	m.Msg = string(data[r.off:])
	return nil
}

// ---------------------------------------------------------------------------
// Slab frames: one rendered (light, heavy) payload pair, raw.

// AppendDispatchSlabHeader encodes everything of a slab frame except the
// texture: a u32 light-payload length, the light payload, and the heavy
// payload's fixed header. The caller sends the returned buffer and
// heavy.Texture as two segments of one DSlab frame — the texture itself is
// never copied. Slab frames carry texture-only heavies; grid geometry and
// elevation maps are not part of the cache identity and are rejected.
func AppendDispatchSlabHeader(buf []byte, light *LightPayload, heavy *HeavyPayload) ([]byte, error) {
	if light == nil || heavy == nil {
		return buf, fmt.Errorf("wire: slab frame requires both payloads")
	}
	if len(heavy.Grid) != 0 || len(heavy.Elevation) != 0 {
		return buf, fmt.Errorf("wire: slab frame cannot carry grid or elevation payloads")
	}
	if want := heavy.TexWidth * heavy.TexHeight * 4; heavy.TexWidth < 0 || heavy.TexHeight < 0 || len(heavy.Texture) != want {
		return buf, fmt.Errorf("wire: slab texture is %d bytes, want %d for %dx%d RGBA",
			len(heavy.Texture), want, heavy.TexWidth, heavy.TexHeight)
	}
	buf = appendU32(buf, uint32(lightFixedSize))
	var err error
	buf, err = light.AppendBinary(buf)
	if err != nil {
		return buf, err
	}
	// The heavy payload's fixed header, exactly as HeavyPayload.MarshalBinary
	// lays it out; the texture follows as its own frame segment.
	buf = appendU32(buf, uint32(int32(heavy.Frame)))
	buf = appendU32(buf, uint32(int32(heavy.PE)))
	buf = appendU32(buf, uint32(int32(heavy.TexWidth)))
	buf = appendU32(buf, uint32(int32(heavy.TexHeight)))
	buf = appendU32(buf, 0) // grid segments
	buf = appendU32(buf, 0) // elevation floats
	return buf, nil
}

// DecodeDispatchSlabInto parses a DSlab payload into caller-provided
// structs, allocating nothing: heavy.Texture ALIASES data, so both payloads
// are valid only until the connection's next ReadFrame. Consumers that
// retain the slab must use DecodeDispatchSlab (or copy) instead.
func DecodeDispatchSlabInto(data []byte, light *LightPayload, heavy *HeavyPayload) error {
	r := reader{data: data}
	n := r.u32("slab light length")
	if r.err != nil {
		return r.err
	}
	if n > uint32(len(data)-r.off) {
		return fmt.Errorf("%w: slab light payload of %d bytes in %d", ErrTruncated, n, len(data)-r.off)
	}
	if err := light.UnmarshalBinary(data[r.off : r.off+int(n)]); err != nil {
		return err
	}
	r.off += int(n)
	// The heavy payload's fixed header, exactly as AppendDispatchSlabHeader
	// laid it out; the texture is the remainder, aliased rather than copied.
	heavy.Frame = int(int32(r.u32("heavy frame")))
	heavy.PE = int(int32(r.u32("heavy pe")))
	heavy.TexWidth = int(int32(r.u32("heavy texWidth")))
	heavy.TexHeight = int(int32(r.u32("heavy texHeight")))
	nGrid := int(int32(r.u32("heavy grid count")))
	nElev := int(int32(r.u32("heavy elevation count")))
	if r.err != nil {
		return r.err
	}
	if nGrid != 0 || nElev != 0 {
		return fmt.Errorf("wire: slab frame carries grid or elevation payloads")
	}
	if heavy.TexWidth < 0 || heavy.TexHeight < 0 {
		return fmt.Errorf("wire: slab texture header has negative dimensions")
	}
	// Bounds first, 64-bit: a hostile header must not overflow the 4x pixel
	// product into a passing comparison.
	texPixels := int64(heavy.TexWidth) * int64(heavy.TexHeight)
	if texPixels > int64(len(data)) || texPixels*4 != int64(len(data)-r.off) {
		return fmt.Errorf("%w: slab texture is %d bytes, header promises %d pixels", ErrTruncated, len(data)-r.off, texPixels)
	}
	heavy.Texture = data[r.off:]
	heavy.Grid = nil
	heavy.Elevation = nil
	return nil
}

// DecodeDispatchSlab parses a DSlab payload into freshly allocated payloads.
// The returned heavy payload owns its texture (copied out of the read
// buffer), so it is safe to retain past the next ReadFrame.
func DecodeDispatchSlab(data []byte) (*LightPayload, *HeavyPayload, error) {
	light := new(LightPayload)
	heavy := new(HeavyPayload)
	if err := DecodeDispatchSlabInto(data, light, heavy); err != nil {
		return nil, nil, err
	}
	heavy.Texture = append([]byte(nil), heavy.Texture...)
	return light, heavy, nil
}
