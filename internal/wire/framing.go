package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// MessageType identifies the kind of payload carried by a frame.
type MessageType byte

// Message types of the back-end / viewer protocol. Type 1 (a run-geometry
// config nothing sent) is retired: a viewer rejects it as unexpected, and
// the number must not be reused.
const (
	// MsgLight carries a LightPayload (visualization metadata).
	MsgLight MessageType = 2
	// MsgHeavy carries a HeavyPayload (texture, grid geometry, elevation).
	MsgHeavy MessageType = 3
	// MsgAxisHint carries an AxisHint from the viewer back to the back end.
	MsgAxisHint MessageType = 4
	// MsgDone announces the orderly end of a stream (all timesteps sent).
	MsgDone MessageType = 5
)

// String implements fmt.Stringer.
func (t MessageType) String() string {
	switch t {
	case MsgLight:
		return "LIGHT"
	case MsgHeavy:
		return "HEAVY"
	case MsgAxisHint:
		return "AXIS_HINT"
	case MsgDone:
		return "DONE"
	default:
		return fmt.Sprintf("MessageType(%d)", byte(t))
	}
}

// frameHeaderSize is the fixed per-frame overhead: type (1), length (4),
// CRC-32 (4).
const frameHeaderSize = 9

// maxFramePayload bounds a single frame to protect against corrupted length
// prefixes; 1 GiB is far above any texture the viewer will ever receive.
const maxFramePayload = 1 << 30

// Message is one decoded protocol frame.
type Message struct {
	Type    MessageType
	Payload []byte
}

// Conn frames messages onto an underlying byte stream. It is the "custom
// TCP-based protocol" of section 3.4 reduced to its essentials: typed,
// length-prefixed, CRC-protected frames. A Conn may wrap a single net.Conn or
// a striped stream (see Stripe).
//
// WriteMessage and ReadMessage are individually safe for concurrent use; a
// single Conn supports one writer goroutine and one reader goroutine
// operating simultaneously.
type Conn struct {
	wmu sync.Mutex
	w   *bufio.Writer
	rmu sync.Mutex
	r   *bufio.Reader

	closer io.Closer

	bytesOut int64
	bytesIn  int64
	msgsOut  int64
	msgsIn   int64
}

// NewConn wraps rw in the Visapult framing protocol. If rw also implements
// io.Closer, Close forwards to it.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{
		w: bufio.NewWriterSize(rw, 64<<10),
		r: bufio.NewReaderSize(rw, 64<<10),
	}
	if cl, ok := rw.(io.Closer); ok {
		c.closer = cl
	}
	return c
}

// WriteMessage frames and sends one message.
func (c *Conn) WriteMessage(t MessageType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("wire: payload of %d bytes exceeds frame limit", len(payload))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var hdr [frameHeaderSize]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:], crc32.ChecksumIEEE(payload))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := c.w.Write(payload); err != nil {
		return fmt.Errorf("wire: write payload: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	c.bytesOut += int64(frameHeaderSize + len(payload))
	c.msgsOut++
	return nil
}

// ReadMessage reads the next frame, validating its checksum.
func (c *Conn) ReadMessage() (Message, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("wire: read header: %w", err)
	}
	t := MessageType(hdr[0])
	n := binary.BigEndian.Uint32(hdr[1:])
	want := binary.BigEndian.Uint32(hdr[5:])
	if n > maxFramePayload {
		return Message{}, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return Message{}, fmt.Errorf("wire: read payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return Message{}, ErrChecksum
	}
	c.bytesIn += int64(frameHeaderSize) + int64(n)
	c.msgsIn++
	return Message{Type: t, Payload: payload}, nil
}

// SendLight sends a MsgLight frame.
func (c *Conn) SendLight(lp *LightPayload) error {
	b, err := lp.MarshalBinary()
	if err != nil {
		return err
	}
	return c.WriteMessage(MsgLight, b)
}

// SendHeavy sends a MsgHeavy frame.
func (c *Conn) SendHeavy(hp *HeavyPayload) error {
	b, err := hp.MarshalBinary()
	if err != nil {
		return err
	}
	return c.WriteMessage(MsgHeavy, b)
}

// SendAxisHint sends a MsgAxisHint frame.
func (c *Conn) SendAxisHint(h *AxisHint) error {
	b, err := h.MarshalBinary()
	if err != nil {
		return err
	}
	return c.WriteMessage(MsgAxisHint, b)
}

// SendDone sends a MsgDone frame announcing the orderly end of the stream.
func (c *Conn) SendDone() error {
	return c.WriteMessage(MsgDone, nil)
}

// Stats describes the traffic a Conn has carried so far.
type Stats struct {
	BytesOut    int64
	BytesIn     int64
	MessagesOut int64
	MessagesIn  int64
}

// Stats returns a snapshot of the connection's traffic counters. It must not
// be called concurrently with WriteMessage or ReadMessage on the same side.
func (c *Conn) Stats() Stats {
	return Stats{BytesOut: c.bytesOut, BytesIn: c.bytesIn, MessagesOut: c.msgsOut, MessagesIn: c.msgsIn}
}

// Close closes the underlying stream if it supports closing.
func (c *Conn) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// DecodeLight decodes the payload of a MsgLight message.
func DecodeLight(m Message) (*LightPayload, error) {
	if m.Type != MsgLight {
		return nil, fmt.Errorf("wire: expected LIGHT message, got %v", m.Type)
	}
	lp := new(LightPayload)
	if err := lp.UnmarshalBinary(m.Payload); err != nil {
		return nil, err
	}
	return lp, nil
}

// DecodeHeavy decodes the payload of a MsgHeavy message.
func DecodeHeavy(m Message) (*HeavyPayload, error) {
	if m.Type != MsgHeavy {
		return nil, fmt.Errorf("wire: expected HEAVY message, got %v", m.Type)
	}
	hp := new(HeavyPayload)
	if err := hp.UnmarshalBinary(m.Payload); err != nil {
		return nil, err
	}
	return hp, nil
}

// DecodeAxisHint decodes the payload of a MsgAxisHint message.
func DecodeAxisHint(m Message) (*AxisHint, error) {
	if m.Type != MsgAxisHint {
		return nil, fmt.Errorf("wire: expected AXIS_HINT message, got %v", m.Type)
	}
	h := new(AxisHint)
	if err := h.UnmarshalBinary(m.Payload); err != nil {
		return nil, err
	}
	return h, nil
}
