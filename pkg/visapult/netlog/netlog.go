// Package netlog is the public NetLogger surface of the Visapult facade:
// event collection, ULM serialization, the netlogd daemon, phase analysis,
// and the textual NLV lifeline plots of the paper's section 3.6.
//
// It re-exports the internal netlogger implementation as aliases, so events
// flow between this package and pipeline results (visapult.Result.Events)
// without conversion.
package netlog

import (
	"io"

	"visapult/internal/netlogger"
)

// NewCollector builds an empty collector.
var NewCollector = netlogger.NewCollector

// NewDaemon builds a daemon; call Listen to serve.
var NewDaemon = netlogger.NewDaemon

// ParseLog parses a ULM-formatted event log.
var ParseLog = netlogger.ParseLog

// Analyze indexes an event stream for phase analysis.
var Analyze = netlogger.Analyze

// NLVOptions configures the textual lifeline plot renderer.
type NLVOptions = netlogger.NLVOptions

// RenderNLV renders the textual equivalent of the paper's NLV lifeline
// plots.
var RenderNLV = netlogger.RenderNLV

// PhaseReport renders the per-phase timing report.
var PhaseReport = netlogger.PhaseReport

// WriteCSV exports events as CSV for external plotting.
func WriteCSV(w io.Writer, events []netlogger.Event) error { return netlogger.WriteCSV(w, events) }

// The paper's Table 1 and Table 2 tag vocabulary.
const (
	BELoadStart   = netlogger.BELoadStart
	BELoadEnd     = netlogger.BELoadEnd
	BERenderStart = netlogger.BERenderStart
	BERenderEnd   = netlogger.BERenderEnd
)

// Tag orderings used by the NLV plots.
var (
	BackEndTags = netlogger.BackEndTags
	ViewerTags  = netlogger.ViewerTags
)
