package visapult

import (
	"visapult/internal/backend"
	"visapult/internal/core"
	"visapult/internal/netlogger"
	"visapult/internal/netsim"
	"visapult/internal/platform"
	"visapult/internal/render"
	"visapult/internal/stats"
	"visapult/internal/transfer"
	"visapult/internal/viewer"
	"visapult/internal/volume"
)

// This file is the curated alias surface of the facade: the internal types a
// public consumer legitimately touches when building pipelines, wrapping
// sources, or reproducing the paper's campaigns. Aliases (type X = internal.Y)
// rather than wrappers, so values flow between the facade and the pipeline
// internals without conversion.

// Mode selects how each PE schedules data loading relative to rendering
// (section 4.3 and Appendix B of the paper).
type Mode = backend.Mode

// Back-end execution modes.
const (
	// Serial loads timestep t, renders it, sends it, then starts t+1.
	Serial = backend.Serial
	// Overlapped loads timestep t+1 while rendering t (the paper's pthread +
	// shared-memory design).
	Overlapped = backend.Overlapped
	// OverlappedProcessPair is the rejected MPI-only alternative of Appendix
	// B: the loaded timestep is copied between reader and renderer.
	OverlappedProcessPair = backend.OverlappedProcessPair
)

// Transport selects how the back end's payloads reach the viewer.
type Transport = core.Transport

// Pipeline transports.
const (
	// TransportLocal delivers payloads with an in-process sink (no sockets).
	TransportLocal = core.TransportLocal
	// TransportTCP gives every PE its own TCP connection to the viewer.
	TransportTCP = core.TransportTCP
	// TransportStriped gives every PE a striped bundle of TCP connections
	// (section 3.4's "striped sockets").
	TransportStriped = core.TransportStriped
)

// Axis identifies a slab decomposition axis.
type Axis = volume.Axis

// AxisZ is the decomposition axis along Z (the default is X).
const AxisZ = volume.AxisZ

// Volume is a dense float32 scalar field; the payload of every Source.
type Volume = volume.Volume

// NewVolume allocates a zero-filled volume, panicking on non-positive
// dimensions.
func NewVolume(nx, ny, nz int) *Volume { return volume.MustNew(nx, ny, nz) }

// Region is an axis-aligned sub-box of a volume, the unit of a Source load.
type Region = volume.Region

// RunStats aggregates one back-end run; FrameMetric records one (PE,
// timestep) within it.
type (
	RunStats    = backend.RunStats
	FrameMetric = backend.FrameStats
)

// ViewerStats is the viewer-side counter snapshot of a run.
type ViewerStats = viewer.Stats

// ViewerDelivery is the fan-out stage's delivery record for one attached
// viewer: frames sent and dropped, queue depth, bytes, and whether (and why)
// the viewer detached.
type ViewerDelivery = backend.ViewerDelivery

// ViewerResult reports one viewer of a WithViewers fan-out run: its
// receive-side counters plus its ViewerDelivery record.
type ViewerResult = core.ViewerResult

// Image is a float RGBA image; WritePPM serializes it for display.
type Image = render.Image

// TransferFunction maps a scalar voxel value to premultiplied RGBA.
type TransferFunction = render.TransferFunction

// CosmologyTF returns the cool-palette transfer function used for the SC99
// cosmology dataset.
func CosmologyTF() TransferFunction { return render.DefaultCosmologyTF() }

// FireTF is the black-body combustion colormap (TransferSpec kind "fire").
type FireTF = render.FireTF

// GrayscaleTF is the linear gray ramp (TransferSpec kind "grayscale").
type GrayscaleTF = render.Grayscale

// CoolTF is the blue/white cosmology colormap (TransferSpec kind "cool").
type CoolTF = render.CoolTF

// PiecewiseTF is a table-driven transfer function (TransferSpec kind
// "piecewise"): control points are linearly interpolated.
type PiecewiseTF = render.Piecewise

// TransferControlPoint is one (value -> color) entry of a PiecewiseTF.
type TransferControlPoint = render.ControlPoint

// GlobalRenderPoolStats reports render-pool occupancy aggregated across every
// pool in the process; the daemons expose it on /metrics.
func GlobalRenderPoolStats() render.PoolStats { return render.GlobalPoolStats() }

// Event is one NetLogger event; see package visapult/pkg/visapult/netlog for
// analysis, ULM serialization and NLV rendering.
type Event = netlogger.Event

// Shaper is a token-bucket bandwidth shaper used to emulate WAN links on
// real connections.
type Shaper = netsim.Shaper

// ShaperForLink builds a shaper matching a testbed link's bandwidth.
func ShaperForLink(l Link) *Shaper { return netsim.ShaperForLink(l) }

// Link is one modelled network segment.
type Link = netsim.Link

// NewPath builds a path from hops; its bandwidth is the bottleneck hop's.
func NewPath(name string, hops ...Link) netsim.Path { return netsim.NewPath(name, hops...) }

// The paper's testbed links.
var (
	NTON = netsim.NTON
	GigE = netsim.GigE
)

// Platform models a back-end compute platform for campaign simulation.
type Platform = platform.Platform

// SMPPlatform is the kind of a shared-memory machine, whose PEs and reader
// threads each get their own CPU.
const SMPPlatform = platform.SMP

// Campaign is a virtual-clock simulation of one of the paper's field tests;
// CampaignResult its outcome. Campaigns regenerate the paper's 160
// MB-per-timestep WAN runs in milliseconds of real time.
type (
	Campaign       = core.Campaign
	CampaignResult = core.CampaignResult
)

// The paper's campaign presets (Figures 10-17).
var (
	FirstLightCampaign    = core.FirstLightCampaign
	SC99CPlantCampaign    = core.SC99CPlantCampaign
	SC99ShowFloorCampaign = core.SC99ShowFloorCampaign
)

// Experiments returns the E1-E12 index of the paper's evaluation.
func Experiments() []core.Experiment { return core.Experiments() }

// Extensions returns the X-series studies of the paper's section 5
// proposals.
func Extensions() []core.Experiment { return core.Extensions() }

// Overlap pipeline model (section 4.3): serial and overlapped totals for n
// timesteps with per-timestep load and render costs, and their ratio.
var (
	SerialTime     = transfer.SerialTime
	OverlappedTime = transfer.OverlappedTime
	Speedup        = transfer.Speedup
	IdealSpeedup   = transfer.IdealSpeedup
)

// Formatting helpers shared by the command-line tools.
var (
	HumanBytes = stats.HumanBytes
	Mbps       = stats.Mbps
	MBps       = stats.MBps
)
