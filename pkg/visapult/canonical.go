package visapult

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// TransferSpec is the serializable form of a volume-rendering transfer
// function, so a RunSpec fully determines the rendered pixels (and therefore
// a render hash). Kind selects one of the built-in colormaps; the numeric
// fields refine it, with zero values selecting that colormap's defaults.
type TransferSpec struct {
	Kind string `json:"kind"` // fire | grayscale | cool | piecewise
	// Threshold below which samples are fully transparent (fire only;
	// 0 selects the fire default of 0.05).
	Threshold float64 `json:"threshold,omitempty"`
	// OpacityScale multiplies per-sample alpha (0 selects the colormap
	// default: fire 0.7, grayscale 1, cool 0.5).
	OpacityScale float64 `json:"opacityScale,omitempty"`
	// Points is the control-point table for kind "piecewise", in increasing
	// Value order.
	Points []TransferPoint `json:"points,omitempty"`
}

// TransferPoint is one (value -> color) entry of a piecewise TransferSpec.
type TransferPoint struct {
	Value float64 `json:"value"`
	R     float64 `json:"r"`
	G     float64 `json:"g"`
	B     float64 `json:"b"`
	A     float64 `json:"a"`
}

// transferFunction builds the render-layer transfer function the spec
// describes. Callers validate first; an unknown kind falls back to the
// default combustion colormap.
func (t *TransferSpec) transferFunction() TransferFunction {
	if t == nil {
		return nil
	}
	switch strings.ToLower(t.Kind) {
	case "", "fire":
		return FireTF{Threshold: float32(t.Threshold), OpacityScale: float32(t.OpacityScale)}
	case "grayscale":
		return GrayscaleTF{OpacityScale: float32(t.OpacityScale)}
	case "cool":
		return CoolTF{OpacityScale: float32(t.OpacityScale)}
	case "piecewise":
		pts := make([]TransferControlPoint, len(t.Points))
		for i, p := range t.Points {
			pts[i] = TransferControlPoint{
				Value: float32(p.Value),
				R:     float32(p.R), G: float32(p.G), B: float32(p.B), A: float32(p.A),
			}
		}
		return PiecewiseTF{Points: pts}
	default:
		return nil
	}
}

// ErrInvalidSpec is the sentinel all RunSpec validation failures match:
// errors.Is(err, ErrInvalidSpec) is true for every ValidationError.
var ErrInvalidSpec = errors.New("visapult: invalid run spec")

// FieldError pins one validation failure to the JSON field that caused it.
type FieldError struct {
	Field   string `json:"field"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Message }

// errViewerBandwidthTransport rejects a viewer bandwidth cap on a transport
// that would silently ignore it: only TransportTCP shapes its connections.
var errViewerBandwidthTransport = FieldError{
	Field:   "viewerBandwidthMbps",
	Code:    "unsupported",
	Message: "a viewer bandwidth cap needs the tcp transport",
}

// ValidationError aggregates every field failure of one RunSpec.Validate
// call, so callers (and the daemon's 400 responses) report all problems at
// once instead of the first.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

// Error implements error.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "visapult: invalid run spec: " + strings.Join(msgs, "; ")
}

// Is reports ErrInvalidSpec as this error's sentinel.
func (e *ValidationError) Is(target error) bool { return target == ErrInvalidSpec }

// Validate checks the spec without normalizing it. It returns nil or a
// *ValidationError carrying one FieldError per problem; errors.Is(err,
// ErrInvalidSpec) matches. The facade (New via RunSpec.Options), the
// scheduler (Manager.CreateSpec) and visapultd's submit handler all call this
// one path, so an invalid spec fails identically everywhere: at the API with
// a 400, never later at dispatch time.
func (spec *RunSpec) Validate() error {
	var fields []FieldError
	add := func(field, code, msg string) {
		fields = append(fields, FieldError{Field: field, Code: code, Message: msg})
	}

	kind := strings.ToLower(spec.Source.Kind)
	switch kind {
	case "", "combustion", "cosmology", "paper", "fabric":
	default:
		add("source.kind", "unknown_enum", fmt.Sprintf("unknown source kind %q (want combustion, cosmology, paper or fabric)", spec.Source.Kind))
	}
	if spec.Source.NX < 0 || spec.Source.NY < 0 || spec.Source.NZ < 0 {
		add("source.nx", "negative", "volume dimensions must be >= 0")
	}
	if spec.Source.Timesteps < 0 {
		add("source.timesteps", "negative", "source timesteps must be >= 0")
	}
	if spec.Source.Scale < 0 {
		add("source.scale", "negative", "paper scale divisor must be >= 0")
	}
	if kind == "fabric" {
		if spec.Fabric == nil {
			add("fabric", "required", `source kind "fabric" requires a fabric config`)
		} else if len(spec.Fabric.Clusters) == 0 {
			add("fabric.clusters", "required", "fabric needs at least one cluster")
		}
		if spec.Source.Base == "" {
			add("source.base", "required", `source kind "fabric" requires a dataset base name`)
		}
	}

	if spec.PEs < 0 {
		add("pes", "negative", "pes must be >= 0")
	}
	if spec.Timesteps < 0 {
		add("timesteps", "negative", "timesteps must be >= 0")
	}
	switch strings.ToLower(spec.Mode) {
	case "", "serial", "overlapped", "process-pair":
	default:
		add("mode", "unknown_enum", fmt.Sprintf("unknown mode %q (want serial, overlapped or process-pair)", spec.Mode))
	}
	switch strings.ToLower(spec.Transport) {
	case "", "local", "tcp", "striped":
	default:
		add("transport", "unknown_enum", fmt.Sprintf("unknown transport %q (want local, tcp or striped)", spec.Transport))
	}
	if spec.StripeLanes < 0 {
		add("stripeLanes", "negative", "stripeLanes must be >= 0")
	}
	if spec.ViewerBandwidthMbps < 0 {
		add("viewerBandwidthMbps", "negative", "viewer bandwidth must be >= 0")
	} else if spec.ViewerBandwidthMbps > 0 && strings.ToLower(spec.Transport) != "tcp" {
		fields = append(fields, errViewerBandwidthTransport)
	}
	if spec.Viewers < 0 {
		add("viewers", "negative", "viewers must be >= 0")
	}
	if spec.ViewerQueue < 0 {
		add("viewerQueue", "negative", "viewerQueue must be >= 0")
	}
	if spec.RenderWorkers < 0 {
		add("renderWorkers", "negative", "renderWorkers must be >= 0")
	}

	if tf := spec.TF; tf != nil {
		switch strings.ToLower(tf.Kind) {
		case "", "fire", "grayscale", "cool":
		case "piecewise":
			if len(tf.Points) == 0 {
				add("tf.points", "required", "piecewise transfer function needs at least one control point")
			}
			// Check Map's documented precondition on the float32 points the
			// renderer will actually see (so float64 values that collapse to
			// the same float32 are caught as duplicates here, not later).
			if pw, ok := tf.transferFunction().(PiecewiseTF); ok {
				if i, duplicate, valid := pw.Check(); !valid {
					if duplicate {
						add("tf.points", "duplicate", fmt.Sprintf("piecewise control point %d repeats the previous value; values must be distinct", i))
					} else {
						add("tf.points", "unordered", "piecewise control points must be in strictly increasing value order")
					}
				}
			}
		default:
			add("tf.kind", "unknown_enum", fmt.Sprintf("unknown transfer function kind %q (want fire, grayscale, cool or piecewise)", tf.Kind))
		}
		if tf.Threshold < 0 || tf.OpacityScale < 0 {
			add("tf", "negative", "transfer function threshold and opacity scale must be >= 0")
		}
	}

	if len(fields) == 0 {
		return nil
	}
	return &ValidationError{Fields: fields}
}

// Canonical returns the spec with every render-relevant field normalized to
// the value the pipeline would actually use: enums lowercased, empty
// selectors replaced by their defaults, zero sizes replaced by the data
// generator's defaults, fields the selected source kind ignores zeroed, and
// a nil transfer function replaced by the concrete default colormap. Two
// specs that describe the same render canonicalize to equal values, which is
// what makes RenderHash a coalescing key. The receiver is not modified.
func (spec RunSpec) Canonical() RunSpec {
	c := spec

	c.Source.Kind = strings.ToLower(c.Source.Kind)
	if c.Source.Kind == "" {
		c.Source.Kind = "combustion"
	}
	switch c.Source.Kind {
	case "combustion", "cosmology":
		// datagen defaults: 64^3 volume, one timestep.
		if c.Source.NX <= 0 {
			c.Source.NX = 64
		}
		if c.Source.NY <= 0 {
			c.Source.NY = 64
		}
		if c.Source.NZ <= 0 {
			c.Source.NZ = 64
		}
		if c.Source.Timesteps <= 0 {
			c.Source.Timesteps = 1
		}
		c.Source.Scale = 0
		c.Source.Base = ""
	case "paper":
		// The paper source derives its grid from the scale divisor alone.
		if c.Source.Scale <= 0 {
			c.Source.Scale = 8
		}
		if c.Source.Timesteps <= 0 {
			c.Source.Timesteps = 1
		}
		c.Source.NX, c.Source.NY, c.Source.NZ = 0, 0, 0
		c.Source.Seed = 0
		c.Source.Base = ""
	case "fabric":
		c.Source.Seed = 0
		c.Source.Scale = 0
	}

	if c.PEs <= 0 {
		c.PEs = 4
	}
	if c.Timesteps < 0 {
		c.Timesteps = 0
	}
	c.Mode = strings.ToLower(c.Mode)
	if c.Mode == "" {
		c.Mode = "serial"
	}
	c.Transport = strings.ToLower(c.Transport)
	if c.Transport == "" {
		c.Transport = "local"
	}
	// The render pool is bit-exact at any worker count, so RenderWorkers is a
	// throughput knob like the transport fields — two submissions differing
	// only here describe the same render. Canonicalization drops it, which is
	// what keeps it out of RenderHash and the coalescing key.
	c.RenderWorkers = 0

	tf := TransferSpec{Kind: "fire"}
	if c.TF != nil {
		tf = *c.TF
		tf.Kind = strings.ToLower(tf.Kind)
		if tf.Kind == "" {
			tf.Kind = "fire"
		}
		tf.Points = append([]TransferPoint(nil), tf.Points...)
	}
	switch tf.Kind {
	case "fire":
		if tf.Threshold == 0 {
			tf.Threshold = 0.05
		}
		if tf.OpacityScale == 0 {
			tf.OpacityScale = 0.7
		}
	case "grayscale":
		if tf.OpacityScale == 0 {
			tf.OpacityScale = 1
		}
		tf.Threshold = 0
	case "cool":
		if tf.OpacityScale == 0 {
			tf.OpacityScale = 0.5
		}
		tf.Threshold = 0
	case "piecewise":
		tf.Threshold = 0
		tf.OpacityScale = 0
	}
	c.TF = &tf

	return c
}

// RenderHash is the content address of the frames this spec renders: a
// stable hex digest over the canonicalized render-relevant subset — source
// identity, decomposition, timestep count, render mode, transfer function
// and view parameters. Delivery concerns (transport, stripe lanes, viewer
// count and queues, bandwidth shaping, instrumentation) are deliberately
// excluded: two submissions that differ only in how frames are delivered
// render identical pixels, so the scheduler coalesces them onto one live
// run and the frame cache serves both. The leading "v1|" versions the hash
// layout; bump it whenever a render-relevant field is added.
func (spec RunSpec) RenderHash() string {
	c := spec.Canonical()
	var b strings.Builder
	b.WriteString("v1")
	kv := func(k, v string) {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	kvi := func(k string, v int64) { kv(k, strconv.FormatInt(v, 10)) }
	kvf := func(k string, v float64) { kv(k, strconv.FormatFloat(v, 'g', -1, 64)) }

	kv("src", c.Source.Kind)
	kvi("nx", int64(c.Source.NX))
	kvi("ny", int64(c.Source.NY))
	kvi("nz", int64(c.Source.NZ))
	kvi("sts", int64(c.Source.Timesteps))
	kvi("seed", c.Source.Seed)
	kvi("scale", int64(c.Source.Scale))
	kv("base", c.Source.Base)
	if c.Source.Kind == "fabric" && c.Fabric != nil {
		// Cluster identity only: epoch, replication and timeouts change where
		// blocks live, not what the frames look like.
		for _, cl := range c.Fabric.Clusters {
			kv("cluster", cl.Name+"@"+cl.Master)
		}
	}
	kvi("pes", int64(c.PEs))
	kvi("ts", int64(c.Timesteps))
	kv("mode", c.Mode)
	kv("tf", c.TF.canonicalString())
	if c.FollowView {
		kv("follow", "1")
	}
	kvf("angle", c.ViewAngleDeg)

	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// canonicalString flattens a (canonicalized) transfer spec into a stable
// textual form for hashing and cache keys.
func (t *TransferSpec) canonicalString() string {
	var b strings.Builder
	b.WriteString(t.Kind)
	f := func(v float64) {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	f(t.Threshold)
	f(t.OpacityScale)
	for _, p := range t.Points {
		b.WriteByte(';')
		for i, v := range []float64{p.Value, p.R, p.G, p.B, p.A} {
			if i > 0 {
				b.WriteByte(':')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return b.String()
}

// cacheIdentity derives the frame-cache key components for this spec: the
// dataset identity string and the transfer-function string. The dataset
// identity spans everything that changes the voxels of a timestep — source
// kind, dimensions, seed, scale, base and fabric identity — but not the
// render mode (serial and overlapped rasterize the same pixels) or delivery
// fields. The per-frame decomposition (axis, PE count) is folded in by the
// back end, which knows the axis schedule.
func (spec RunSpec) cacheIdentity() (dataset, tf string) {
	c := spec.Canonical()
	var b strings.Builder
	b.WriteString(c.Source.Kind)
	for _, v := range []int64{int64(c.Source.NX), int64(c.Source.NY), int64(c.Source.NZ), int64(c.Source.Timesteps), c.Source.Seed, int64(c.Source.Scale)} {
		b.WriteByte('/')
		b.WriteString(strconv.FormatInt(v, 10))
	}
	b.WriteByte('/')
	b.WriteString(c.Source.Base)
	if c.Source.Kind == "fabric" && c.Fabric != nil {
		for _, cl := range c.Fabric.Clusters {
			b.WriteByte('/')
			b.WriteString(cl.Name + "@" + cl.Master)
		}
	}
	return b.String(), c.TF.canonicalString()
}
