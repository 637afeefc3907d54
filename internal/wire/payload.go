// Package wire implements the custom TCP-based protocol the Visapult back
// end and viewer speak to each other (section 3.4 and Appendix A of the
// paper).
//
// Per timestep, every back-end processing element sends the viewer two
// payloads:
//
//   - a "light payload": visualization metadata — texture size, bytes per
//     pixel, and the geometric placement of the slab-center quad in the 3-D
//     scene. The paper notes this is on the order of 256 bytes.
//   - a "heavy payload": the visualization data proper — the rendered slab
//     texture, optional AMR grid line segments, and an optional elevation
//     (quadmesh) map. Typically 0.25-1 MB per texture, tens of kilobytes of
//     geometry.
//
// The viewer may send small control messages upstream, most importantly the
// best view axis computed per frame (section 3.3), which the back end uses to
// pick an X-, Y- or Z-axis-aligned slab decomposition.
//
// Payloads travel inside length-prefixed, CRC-protected frames (framing.go),
// optionally over several sockets striped into one logical stream
// (stripe.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"visapult/internal/amr"
	"visapult/internal/volume"
)

// Protocol errors.
var (
	// ErrChecksum reports a frame whose payload failed CRC validation.
	ErrChecksum = errors.New("wire: payload checksum mismatch")
	// ErrTruncated reports a payload shorter than its fixed header requires.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrBadMagic reports a stream that does not start with the protocol magic.
	ErrBadMagic = errors.New("wire: bad protocol magic")
)

// LightPayload is the per-frame visualization metadata one back-end PE sends
// ahead of its heavy payload (Table 1: V_LIGHTPAYLOAD_*).
type LightPayload struct {
	// Frame is the timestep this payload belongs to.
	Frame int
	// PE is the back-end processing element rank that produced it.
	PE int
	// SlabIndex and SlabCount locate the PE's slab in the decomposition.
	SlabIndex int
	SlabCount int
	// Axis is the slab decomposition axis in use for this frame.
	Axis volume.Axis
	// TexWidth, TexHeight and BytesPerPixel describe the texture that will
	// arrive in the heavy payload.
	TexWidth      int
	TexHeight     int
	BytesPerPixel int
	// CenterX/Y/Z, Width, Height and Depth place the slab-center quad in the
	// 3-D scene, in voxel coordinates of the source volume.
	CenterX, CenterY, CenterZ float64
	Width, Height, Depth      float64
	// HeavyBytes announces the size of the heavy payload that follows, so the
	// viewer can report transfer progress.
	HeavyBytes int64
	// GridSegments is the number of AMR wireframe segments in the heavy
	// payload (zero when the frame carries no grid geometry).
	GridSegments int
	// HasElevation is true when the heavy payload carries a quadmesh
	// elevation map (the IBRAVR depth extension).
	HasElevation bool
}

// lightFixedSize is the encoded size of a LightPayload: eight 32-bit fields,
// six 64-bit geometry floats, one 64-bit byte count, one 32-bit segment
// count, one flag byte.
const lightFixedSize = 8*4 + 6*8 + 8 + 4 + 1

// MarshalBinary encodes the light payload into the compact fixed-size form
// sent on the wire.
func (lp *LightPayload) MarshalBinary() ([]byte, error) {
	return lp.AppendBinary(make([]byte, 0, lightFixedSize))
}

// AppendBinary appends the wire form to buf and returns the extended slice,
// so hot paths (the dispatch slab frames) can encode into pooled buffers
// without a per-payload allocation.
func (lp *LightPayload) AppendBinary(buf []byte) ([]byte, error) {
	start := len(buf)
	var scratch [8]byte
	put32 := func(v int) {
		binary.BigEndian.PutUint32(scratch[:4], uint32(int32(v)))
		buf = append(buf, scratch[:4]...)
	}
	putF := func(v float64) {
		binary.BigEndian.PutUint64(scratch[:], math.Float64bits(v))
		buf = append(buf, scratch[:]...)
	}
	put32(lp.Frame)
	put32(lp.PE)
	put32(lp.SlabIndex)
	put32(lp.SlabCount)
	put32(int(lp.Axis))
	put32(lp.TexWidth)
	put32(lp.TexHeight)
	put32(lp.BytesPerPixel)
	putF(lp.CenterX)
	putF(lp.CenterY)
	putF(lp.CenterZ)
	putF(lp.Width)
	putF(lp.Height)
	putF(lp.Depth)
	binary.BigEndian.PutUint64(scratch[:], uint64(lp.HeavyBytes))
	buf = append(buf, scratch[:]...)
	put32(lp.GridSegments)
	var elev byte
	if lp.HasElevation {
		elev = 1
	}
	buf = append(buf, elev)
	if len(buf)-start != lightFixedSize {
		return nil, fmt.Errorf("wire: internal size mismatch (%d != %d)", len(buf)-start, lightFixedSize)
	}
	return buf, nil
}

// UnmarshalBinary decodes a light payload previously produced by
// MarshalBinary.
func (lp *LightPayload) UnmarshalBinary(data []byte) error {
	if len(data) < lightFixedSize {
		return fmt.Errorf("%w: light payload %d bytes, need %d", ErrTruncated, len(data), lightFixedSize)
	}
	off := 0
	get32 := func() int {
		v := int(int32(binary.BigEndian.Uint32(data[off:])))
		off += 4
		return v
	}
	getF := func() float64 {
		v := math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
		off += 8
		return v
	}
	lp.Frame = get32()
	lp.PE = get32()
	lp.SlabIndex = get32()
	lp.SlabCount = get32()
	lp.Axis = volume.Axis(get32())
	lp.TexWidth = get32()
	lp.TexHeight = get32()
	lp.BytesPerPixel = get32()
	lp.CenterX = getF()
	lp.CenterY = getF()
	lp.CenterZ = getF()
	lp.Width = getF()
	lp.Height = getF()
	lp.Depth = getF()
	lp.HeavyBytes = int64(binary.BigEndian.Uint64(data[off:]))
	off += 8
	lp.GridSegments = get32()
	lp.HasElevation = data[off] == 1
	return nil
}

// WireSize returns the encoded size of the light payload in bytes. The paper
// quotes "on the order of 256 bytes"; this implementation uses a fixed 101.
func (lp *LightPayload) WireSize() int64 { return lightFixedSize }

// segmentWireSize is the encoded size of one AMR wireframe segment: two
// float32 endpoints (24 bytes) plus a 32-bit refinement level.
const segmentWireSize = 6*4 + 4

// HeavyPayload is the per-frame visualization data one back-end PE sends: the
// rendered slab texture plus optional grid geometry and elevation map
// (Table 1: V_HEAVYPAYLOAD_*).
type HeavyPayload struct {
	// Frame and PE identify the timestep and producer, and must match the
	// preceding light payload.
	Frame int
	PE    int
	// TexWidth and TexHeight are the texture dimensions in pixels.
	TexWidth  int
	TexHeight int
	// Texture is the rendered slab image as packed RGBA, 4 bytes per pixel.
	Texture []byte
	// Grid is the AMR hierarchy wireframe rendered alongside the volume
	// (Figure 3), as world-space line segments.
	Grid []amr.Segment
	// Elevation is the optional quadmesh elevation map of the IBRAVR depth
	// extension, one float per texture pixel, or nil.
	Elevation []float32
}

// WireSize returns the number of payload bytes the heavy payload occupies on
// the wire (excluding frame headers).
func (hp *HeavyPayload) WireSize() int64 {
	n := int64(6 * 4) // fixed header: frame, pe, w, h, grid count, elev count
	n += int64(len(hp.Texture))
	n += int64(len(hp.Grid)) * segmentWireSize
	n += int64(len(hp.Elevation)) * 4
	return n
}

// MarshalBinary encodes the heavy payload.
func (hp *HeavyPayload) MarshalBinary() ([]byte, error) {
	if hp.TexWidth < 0 || hp.TexHeight < 0 {
		return nil, fmt.Errorf("wire: negative texture dimensions %dx%d", hp.TexWidth, hp.TexHeight)
	}
	if want := hp.TexWidth * hp.TexHeight * 4; len(hp.Texture) != want {
		return nil, fmt.Errorf("wire: texture is %d bytes, want %d for %dx%d RGBA",
			len(hp.Texture), want, hp.TexWidth, hp.TexHeight)
	}
	buf := make([]byte, 0, hp.WireSize())
	var w32 [4]byte
	app32 := func(v int) {
		binary.BigEndian.PutUint32(w32[:], uint32(int32(v)))
		buf = append(buf, w32[:]...)
	}
	app32(hp.Frame)
	app32(hp.PE)
	app32(hp.TexWidth)
	app32(hp.TexHeight)
	app32(len(hp.Grid))
	app32(len(hp.Elevation))
	buf = append(buf, hp.Texture...)
	appF := func(v float32) {
		binary.BigEndian.PutUint32(w32[:], math.Float32bits(v))
		buf = append(buf, w32[:]...)
	}
	for _, s := range hp.Grid {
		appF(s.A.X)
		appF(s.A.Y)
		appF(s.A.Z)
		appF(s.B.X)
		appF(s.B.Y)
		appF(s.B.Z)
		app32(s.Level)
	}
	for _, e := range hp.Elevation {
		binary.BigEndian.PutUint32(w32[:], math.Float32bits(e))
		buf = append(buf, w32[:]...)
	}
	return buf, nil
}

// UnmarshalBinary decodes a heavy payload previously produced by
// MarshalBinary.
func (hp *HeavyPayload) UnmarshalBinary(data []byte) error {
	const hdr = 6 * 4
	if len(data) < hdr {
		return fmt.Errorf("%w: heavy payload %d bytes, need at least %d", ErrTruncated, len(data), hdr)
	}
	off := 0
	get32 := func() int {
		v := int(int32(binary.BigEndian.Uint32(data[off:])))
		off += 4
		return v
	}
	hp.Frame = get32()
	hp.PE = get32()
	hp.TexWidth = get32()
	hp.TexHeight = get32()
	nGrid := get32()
	nElev := get32()
	if hp.TexWidth < 0 || hp.TexHeight < 0 || nGrid < 0 || nElev < 0 {
		return fmt.Errorf("wire: heavy payload header has negative counts")
	}
	// The counts are untrusted until checked against len(data); do the size
	// arithmetic in 64 bits so a hostile header cannot overflow int into a
	// negative slice bound. A texture needs 4 bytes per pixel, so any pixel
	// count beyond len(data) is already truncated — rejecting it here keeps
	// the 4x product below from overflowing too.
	texPixels := int64(hp.TexWidth) * int64(hp.TexHeight)
	if texPixels > int64(len(data)) {
		return fmt.Errorf("%w: heavy payload %d bytes, header promises %d-pixel texture", ErrTruncated, len(data), texPixels)
	}
	texBytes := int(texPixels) * 4
	need := int64(hdr) + int64(texBytes) + int64(nGrid)*segmentWireSize + int64(nElev)*4
	if int64(len(data)) < need {
		return fmt.Errorf("%w: heavy payload %d bytes, header promises %d", ErrTruncated, len(data), need)
	}
	hp.Texture = append([]byte(nil), data[off:off+texBytes]...)
	off += texBytes
	getF := func() float32 {
		v := math.Float32frombits(binary.BigEndian.Uint32(data[off:]))
		off += 4
		return v
	}
	hp.Grid = make([]amr.Segment, nGrid)
	for i := range hp.Grid {
		hp.Grid[i].A = amr.Point3{X: getF(), Y: getF(), Z: getF()}
		hp.Grid[i].B = amr.Point3{X: getF(), Y: getF(), Z: getF()}
		hp.Grid[i].Level = get32()
	}
	if nElev > 0 {
		hp.Elevation = make([]float32, nElev)
		for i := range hp.Elevation {
			hp.Elevation[i] = math.Float32frombits(binary.BigEndian.Uint32(data[off:]))
			off += 4
		}
	} else {
		hp.Elevation = nil
	}
	return nil
}

// Config is exchanged once at connection setup (the "Exchange Config Data"
// step of Figure 18): the back end announces the run geometry so the viewer
// can size its scene graph and per-PE service threads.
type Config struct {
	// PEs is the number of back-end processing elements that will connect.
	PEs int
	// Timesteps is the number of data frames the run will produce.
	Timesteps int
	// VolumeNX/NY/NZ are the source volume dimensions.
	VolumeNX, VolumeNY, VolumeNZ int
	// Axis is the initial slab decomposition axis.
	Axis volume.Axis
	// Dataset is a human-readable dataset name carried for logging.
	Dataset string
}

// MarshalBinary encodes the config message.
func (c *Config) MarshalBinary() ([]byte, error) {
	name := []byte(c.Dataset)
	buf := make([]byte, 7*4+len(name))
	fields := []int{c.PEs, c.Timesteps, c.VolumeNX, c.VolumeNY, c.VolumeNZ, int(c.Axis), len(name)}
	for i, v := range fields {
		binary.BigEndian.PutUint32(buf[i*4:], uint32(int32(v)))
	}
	copy(buf[7*4:], name)
	return buf, nil
}

// UnmarshalBinary decodes a config message.
func (c *Config) UnmarshalBinary(data []byte) error {
	if len(data) < 7*4 {
		return fmt.Errorf("%w: config %d bytes, need %d", ErrTruncated, len(data), 7*4)
	}
	get := func(i int) int { return int(int32(binary.BigEndian.Uint32(data[i*4:]))) }
	c.PEs = get(0)
	c.Timesteps = get(1)
	c.VolumeNX = get(2)
	c.VolumeNY = get(3)
	c.VolumeNZ = get(4)
	c.Axis = volume.Axis(get(5))
	nameLen := get(6)
	if nameLen < 0 || 7*4+nameLen > len(data) {
		return fmt.Errorf("%w: config name length %d exceeds payload", ErrTruncated, nameLen)
	}
	c.Dataset = string(data[7*4 : 7*4+nameLen])
	return nil
}

// AxisHint is the viewer-to-back-end control message carrying the best view
// axis for the next frame (section 3.3: "the Visapult viewer computes the
// best view axis, and transmits this information to the back end").
type AxisHint struct {
	// Frame is the frame from which the hint was computed.
	Frame int
	// Axis is the axis whose slab decomposition best matches the current
	// view direction.
	Axis volume.Axis
}

// MarshalBinary encodes the axis hint.
func (a *AxisHint) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint32(buf, uint32(int32(a.Frame)))
	binary.BigEndian.PutUint32(buf[4:], uint32(int32(a.Axis)))
	return buf, nil
}

// UnmarshalBinary decodes an axis hint.
func (a *AxisHint) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("%w: axis hint %d bytes, need 8", ErrTruncated, len(data))
	}
	a.Frame = int(int32(binary.BigEndian.Uint32(data)))
	a.Axis = volume.Axis(int32(binary.BigEndian.Uint32(data[4:])))
	return nil
}
