package wire

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"visapult/internal/amr"
	"visapult/internal/volume"
)

func sampleLight() *LightPayload {
	return &LightPayload{
		Frame: 7, PE: 3, SlabIndex: 3, SlabCount: 8,
		Axis: volume.AxisZ, TexWidth: 640, TexHeight: 256, BytesPerPixel: 4,
		CenterX: 320, CenterY: 128, CenterZ: 112,
		Width: 640, Height: 256, Depth: 32,
		HeavyBytes: 640 * 256 * 4, GridSegments: 12, HasElevation: true,
	}
}

func sampleHeavy(w, h int) *HeavyPayload {
	tex := make([]byte, w*h*4)
	for i := range tex {
		tex[i] = byte(i * 31)
	}
	return &HeavyPayload{
		Frame: 7, PE: 3, TexWidth: w, TexHeight: h,
		Texture: tex,
		Grid: []amr.Segment{
			{A: amr.Point3{X: 0, Y: 0, Z: 0}, B: amr.Point3{X: 1, Y: 2, Z: 3}},
			{A: amr.Point3{X: 4, Y: 5, Z: 6}, B: amr.Point3{X: 7, Y: 8, Z: 9}},
		},
		Elevation: []float32{0.5, 1.5, -2.25, 0},
	}
}

func TestLightPayloadRoundTrip(t *testing.T) {
	lp := sampleLight()
	b, err := lp.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if int64(len(b)) != lp.WireSize() {
		t.Fatalf("encoded size %d != WireSize %d", len(b), lp.WireSize())
	}
	var got LightPayload
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*lp, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", *lp, got)
	}
}

func TestLightPayloadIsSmall(t *testing.T) {
	// The paper: visualization metadata "is on the order of 256 bytes."
	lp := sampleLight()
	if lp.WireSize() > 256 {
		t.Fatalf("light payload is %d bytes, want <= 256", lp.WireSize())
	}
}

func TestLightPayloadTruncated(t *testing.T) {
	var lp LightPayload
	if err := lp.UnmarshalBinary(make([]byte, 10)); err == nil {
		t.Fatal("expected error for truncated light payload")
	}
}

func TestHeavyPayloadRoundTrip(t *testing.T) {
	hp := sampleHeavy(16, 8)
	b, err := hp.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if int64(len(b)) != hp.WireSize() {
		t.Fatalf("encoded size %d != WireSize %d", len(b), hp.WireSize())
	}
	var got HeavyPayload
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*hp, got) {
		t.Fatal("heavy payload round trip mismatch")
	}
}

func TestHeavyPayloadNoGridNoElevation(t *testing.T) {
	hp := &HeavyPayload{Frame: 1, PE: 0, TexWidth: 4, TexHeight: 4, Texture: make([]byte, 64)}
	b, err := hp.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got HeavyPayload
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(got.Grid) != 0 || got.Elevation != nil {
		t.Fatalf("expected empty grid and nil elevation, got %d grid, %v elevation", len(got.Grid), got.Elevation)
	}
}

func TestHeavyPayloadBadTextureSize(t *testing.T) {
	hp := &HeavyPayload{TexWidth: 4, TexHeight: 4, Texture: make([]byte, 3)}
	if _, err := hp.MarshalBinary(); err == nil {
		t.Fatal("expected error for texture size mismatch")
	}
}

func TestHeavyPayloadTruncated(t *testing.T) {
	hp := sampleHeavy(8, 8)
	b, _ := hp.MarshalBinary()
	var got HeavyPayload
	if err := got.UnmarshalBinary(b[:len(b)-5]); err == nil {
		t.Fatal("expected error for truncated heavy payload")
	}
	if err := got.UnmarshalBinary(b[:3]); err == nil {
		t.Fatal("expected error for truncated header")
	}
}

func TestAxisHintRoundTrip(t *testing.T) {
	h := &AxisHint{Frame: 12, Axis: volume.AxisX}
	b, err := h.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got AxisHint
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got != *h {
		t.Fatalf("axis hint mismatch: %+v vs %+v", *h, got)
	}
	if err := got.UnmarshalBinary(b[:4]); err == nil {
		t.Fatal("expected error for truncated axis hint")
	}
}

// duplexPipe builds an in-memory bidirectional byte stream.
type pipeEnd struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func (p pipeEnd) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p pipeEnd) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p pipeEnd) Close() error                { p.r.Close(); return p.w.Close() }

func duplexPipe() (pipeEnd, pipeEnd) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	return pipeEnd{r: ar, w: aw}, pipeEnd{r: br, w: bw}
}

func TestConnMessageRoundTrip(t *testing.T) {
	a, b := duplexPipe()
	sender, receiver := NewConn(a), NewConn(b)

	done := make(chan error, 1)
	go func() {
		if err := sender.SendLight(sampleLight()); err != nil {
			done <- err
			return
		}
		if err := sender.SendHeavy(sampleHeavy(8, 4)); err != nil {
			done <- err
			return
		}
		done <- sender.SendDone()
	}()

	m, err := receiver.ReadMessage()
	if err != nil || m.Type != MsgLight {
		t.Fatalf("light: %v %v", m.Type, err)
	}
	lp, err := DecodeLight(m)
	if err != nil || lp.Frame != 7 {
		t.Fatalf("decode light: %+v %v", lp, err)
	}
	m, err = receiver.ReadMessage()
	if err != nil || m.Type != MsgHeavy {
		t.Fatalf("heavy: %v %v", m.Type, err)
	}
	hp, err := DecodeHeavy(m)
	if err != nil || hp.TexWidth != 8 || hp.TexHeight != 4 {
		t.Fatalf("decode heavy: %+v %v", hp, err)
	}
	m, err = receiver.ReadMessage()
	if err != nil || m.Type != MsgDone {
		t.Fatalf("done: %v %v", m.Type, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("sender: %v", err)
	}
	st := receiver.Stats()
	if st.MessagesIn != 3 || st.BytesIn == 0 {
		t.Fatalf("unexpected receiver stats %+v", st)
	}
}

func TestConnChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{&buf, &buf})
	if err := c.SendLight(sampleLight()); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Corrupt one payload byte (past the 9-byte header).
	raw := buf.Bytes()
	raw[frameHeaderSize+2] ^= 0xFF
	c2 := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(raw), io.Discard})
	if _, err := c2.ReadMessage(); err != ErrChecksum {
		t.Fatalf("expected ErrChecksum, got %v", err)
	}
}

func TestConnEOF(t *testing.T) {
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), io.Discard})
	if _, err := c.ReadMessage(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestDecodeWrongType(t *testing.T) {
	m := Message{Type: MsgLight}
	if _, err := DecodeHeavy(m); err == nil {
		t.Fatal("DecodeHeavy should reject LIGHT message")
	}
	if _, err := DecodeAxisHint(m); err == nil {
		t.Fatal("DecodeAxisHint should reject LIGHT message")
	}
	m.Type = MsgHeavy
	if _, err := DecodeLight(m); err == nil {
		t.Fatal("DecodeLight should reject HEAVY message")
	}
}

func TestMessageTypeString(t *testing.T) {
	cases := map[MessageType]string{
		MessageType(1): "MessageType(1)", MsgLight: "LIGHT", MsgHeavy: "HEAVY",
		MsgAxisHint: "AXIS_HINT", MsgDone: "DONE", MessageType(99): "MessageType(99)",
	}
	for mt, want := range cases {
		if got := mt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", mt, got, want)
		}
	}
}

func TestStripedStreamOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sl := NewStripeListener(l, 1024)
	defer sl.Close()

	const lanes = 4
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var recvErr error
	var received []byte
	go func() {
		defer wg.Done()
		s, err := sl.Accept()
		if err != nil {
			recvErr = err
			return
		}
		defer s.Close()
		received, recvErr = io.ReadAll(s)
	}()

	s, err := DialStriped(l.Addr().String(), lanes, 1024)
	if err != nil {
		t.Fatalf("dial striped: %v", err)
	}
	if s.Lanes() != lanes {
		t.Fatalf("lanes = %d, want %d", s.Lanes(), lanes)
	}
	if _, err := s.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatalf("receive: %v", recvErr)
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("striped stream corrupted: got %d bytes, want %d", len(received), len(payload))
	}
}

func TestStripedConnCarriesProtocol(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sl := NewStripeListener(l, 4096)
	defer sl.Close()

	type result struct {
		hp  *HeavyPayload
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		s, err := sl.Accept()
		if err != nil {
			resCh <- result{err: err}
			return
		}
		conn := NewConn(s)
		m, err := conn.ReadMessage()
		if err != nil {
			resCh <- result{err: err}
			return
		}
		hp, err := DecodeHeavy(m)
		resCh <- result{hp: hp, err: err}
	}()

	s, err := DialStriped(l.Addr().String(), 3, 4096)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn := NewConn(s)
	want := sampleHeavy(64, 32)
	if err := conn.SendHeavy(want); err != nil {
		t.Fatalf("send heavy: %v", err)
	}
	r := <-resCh
	if r.err != nil {
		t.Fatalf("receive: %v", r.err)
	}
	if !bytes.Equal(r.hp.Texture, want.Texture) {
		t.Fatal("texture corrupted across striped connection")
	}
	conn.Close()
}

func TestStripeSingleLane(t *testing.T) {
	a, b := duplexPipe()
	s, err := NewStripe([]io.ReadWriteCloser{a}, 16)
	if err != nil {
		t.Fatalf("new stripe: %v", err)
	}
	r, err := NewStripe([]io.ReadWriteCloser{b}, 16)
	if err != nil {
		t.Fatalf("new stripe: %v", err)
	}
	msg := []byte("hello across a single-lane stripe, longer than one chunk")
	go func() {
		s.Write(msg)
		s.Close()
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
}

func TestStripeRequiresConnections(t *testing.T) {
	if _, err := NewStripe(nil, 0); err == nil {
		t.Fatal("expected error for empty connection list")
	}
}

func TestStripeWriteAfterClose(t *testing.T) {
	a, b := duplexPipe()
	// Drain the peer side so Close's end-of-stream marker does not block on
	// the unbuffered in-memory pipe (a real TCP socket would buffer it).
	go io.Copy(io.Discard, b.r) //nolint:errcheck // drained until pipe closes
	s, err := NewStripe([]io.ReadWriteCloser{a}, 16)
	if err != nil {
		t.Fatalf("new stripe: %v", err)
	}
	s.Close()
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("expected error writing to closed stripe")
	}
	// Double close is a no-op.
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestLightPayloadRoundTripProperty(t *testing.T) {
	f := func(frame, pe uint8, slab uint8, w, h uint16, cx, cy, cz float64, heavy uint32, elev bool) bool {
		in := LightPayload{
			Frame: int(frame), PE: int(pe), SlabIndex: int(slab), SlabCount: int(slab) + 1,
			Axis: volume.Axis(int(pe) % 3), TexWidth: int(w), TexHeight: int(h), BytesPerPixel: 4,
			CenterX: cx, CenterY: cy, CenterZ: cz, Width: 1, Height: 2, Depth: 3,
			HeavyBytes: int64(heavy), GridSegments: int(slab), HasElevation: elev,
		}
		b, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		var out LightPayload
		if err := out.UnmarshalBinary(b); err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeReassemblyProperty(t *testing.T) {
	// For any payload and lane count, a stripe round trip through in-memory
	// pipes reproduces the payload exactly.
	f := func(data []byte, lanesRaw uint8, chunkRaw uint8) bool {
		lanes := int(lanesRaw)%4 + 1
		chunk := int(chunkRaw)%128 + 1
		aEnds := make([]io.ReadWriteCloser, lanes)
		bEnds := make([]io.ReadWriteCloser, lanes)
		for i := 0; i < lanes; i++ {
			a, b := duplexPipe()
			aEnds[i], bEnds[i] = a, b
		}
		ws, err := NewStripe(aEnds, chunk)
		if err != nil {
			return false
		}
		rs, err := NewStripe(bEnds, chunk)
		if err != nil {
			return false
		}
		go func() {
			ws.Write(data)
			ws.Close()
		}()
		got, err := io.ReadAll(rs)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
