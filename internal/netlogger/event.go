// Package netlogger is a Go reimplementation of the NetLogger methodology the
// paper uses for end-to-end performance analysis of the distributed Visapult
// pipeline (section 3.6 and every profile figure).
//
// Instrumented components emit precision-timestamped events ("BE_LOAD_START",
// "V_FRAME_END", ...) either to an in-process collector or over TCP to a
// netlogd daemon. The analysis side parses the accumulated event log, pairs
// START/END tags into phase durations, and renders NLV-style lifeline plots
// (as ASCII art or CSV) — the same artefacts as the paper's Figures 10-17.
//
// Events are encoded in the ULM (Universal Logger Message) keyword=value
// format used by the original NetLogger toolkit.
package netlogger

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Standard Visapult back-end event tags (Table 2 of the paper).
const (
	BEFrameStart  = "BE_FRAME_START"  // top of the per-timestep loop in each PE
	BELoadStart   = "BE_LOAD_START"   // PE is about to load its subset of volume data
	BELoadEnd     = "BE_LOAD_END"     // volume data load and format conversion completed
	BELightSend   = "BE_LIGHT_SEND"   // start transmitting visualization metadata to the viewer
	BELightEnd    = "BE_LIGHT_END"    // metadata transmission complete
	BERenderStart = "BE_RENDER_START" // start of parallel volume rendering
	BERenderEnd   = "BE_RENDER_END"   // all rendering complete
	BEHeavySend   = "BE_HEAVY_SEND"   // start transmitting visualization data (textures, grids)
	BEHeavyEnd    = "BE_HEAVY_END"    // end of visualization data transmission
	BEFrameEnd    = "BE_FRAME_END"    // end of processing for this timestep
)

// Standard Visapult viewer event tags (Table 1 of the paper).
const (
	VFrameStart        = "V_FRAME_START"
	VLightPayloadStart = "V_LIGHTPAYLOAD_START"
	VLightPayloadEnd   = "V_LIGHTPAYLOAD_END"
	VHeavyPayloadStart = "V_HEAVYPAYLOAD_START"
	VHeavyPayloadEnd   = "V_HEAVYPAYLOAD_END"
	VFrameEnd          = "V_FRAME_END"
)

// BackEndTags lists the back-end tags in the vertical order the paper's NLV
// plots use (bottom to top).
var BackEndTags = []string{
	BEFrameStart, BELoadStart, BELoadEnd, BELightSend, BELightEnd,
	BERenderStart, BERenderEnd, BEHeavySend, BEHeavyEnd, BEFrameEnd,
}

// ViewerTags lists the viewer tags in NLV plot order.
var ViewerTags = []string{
	VFrameStart, VLightPayloadStart, VLightPayloadEnd,
	VHeavyPayloadStart, VHeavyPayloadEnd, VFrameEnd,
}

// Well-known field keys attached to events.
const (
	FieldFrame = "FRAME" // timestep / data frame number
	FieldPE    = "PE"    // back-end processing element rank
	FieldBytes = "BYTES" // payload size associated with the event
)

// Event is one NetLogger event.
type Event struct {
	Time   time.Time
	Host   string
	Prog   string
	Tag    string
	Level  int
	Fields map[string]string
}

// Field is a key/value pair attached to an event.
type Field struct {
	Key   string
	Value string
}

// Int returns a Field with an integer value.
func Int(key string, v int) Field { return Field{Key: key, Value: strconv.Itoa(v)} }

// Int64 returns a Field with an int64 value.
func Int64(key string, v int64) Field { return Field{Key: key, Value: strconv.FormatInt(v, 10)} }

// Str returns a Field with a string value.
func Str(key, v string) Field { return Field{Key: key, Value: v} }

// Frame returns the event's FRAME field as an integer, or -1 if absent or
// malformed.
func (e Event) Frame() int {
	v, ok := e.Fields[FieldFrame]
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return n
}

// PE returns the event's PE field as an integer, or -1 if absent or
// malformed.
func (e Event) PE() int {
	v, ok := e.Fields[FieldPE]
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return n
}

// Bytes returns the event's BYTES field, or 0 if absent.
func (e Event) Bytes() int64 {
	v, ok := e.Fields[FieldBytes]
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// ulmTimeLayout is the NetLogger ULM timestamp format: UTC with microsecond
// resolution.
const ulmTimeLayout = "20060102150405.000000"

// ULM encodes the event as a single Universal Logger Message line (without a
// trailing newline). Field keys are emitted in sorted order so the encoding
// is deterministic. Every token is sanitized (see sanitize), and a field key
// that would read back as a header keyword (DATE, HOST, PROG, LVL, NL.EVNT)
// gets a trailing '_', so ParseULM returns the event's tag, time, level and
// fields as written.
func (e Event) ULM() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DATE=%s", e.Time.UTC().Format(ulmTimeLayout))
	fmt.Fprintf(&b, " HOST=%s", sanitize(e.Host))
	fmt.Fprintf(&b, " PROG=%s", sanitize(e.Prog))
	fmt.Fprintf(&b, " LVL=%d", e.Level)
	fmt.Fprintf(&b, " NL.EVNT=%s", sanitize(e.Tag))
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", fieldKey(k), sanitize(e.Fields[k]))
	}
	return b.String()
}

// sanitize replaces whitespace (every rune ParseULM splits tokens on) and
// '=' in ULM tokens with '_' so lines stay parseable.
func sanitize(s string) string {
	if s == "" {
		return "-"
	}
	return strings.Map(func(r rune) rune {
		if r == '=' || unicode.IsSpace(r) {
			return '_'
		}
		return r
	}, s)
}

// fieldKey is the ULM token for a field key: the sanitized key, with '_'
// appended when it would otherwise be taken for a header keyword.
func fieldKey(k string) string {
	k = sanitize(k)
	switch k {
	case "DATE", "HOST", "PROG", "LVL", "NL.EVNT":
		return k + "_"
	}
	return k
}

// ParseULM parses one ULM line back into an Event. Unknown keys become
// Fields entries. Lines that do not contain DATE and NL.EVNT are rejected.
func ParseULM(line string) (Event, error) {
	e := Event{Fields: make(map[string]string)}
	sawDate, sawTag := false, false
	for _, tok := range strings.Fields(line) {
		eq := strings.IndexByte(tok, '=')
		if eq < 0 {
			return Event{}, fmt.Errorf("netlogger: malformed token %q", tok)
		}
		key, val := tok[:eq], tok[eq+1:]
		switch key {
		case "DATE":
			ts, err := time.Parse(ulmTimeLayout, val)
			if err != nil {
				return Event{}, fmt.Errorf("netlogger: bad DATE %q: %w", val, err)
			}
			e.Time = ts.UTC()
			sawDate = true
		case "HOST":
			e.Host = val
		case "PROG":
			e.Prog = val
		case "LVL":
			lvl, err := strconv.Atoi(val)
			if err != nil {
				return Event{}, fmt.Errorf("netlogger: bad LVL %q", val)
			}
			e.Level = lvl
		case "NL.EVNT":
			e.Tag = val
			sawTag = true
		default:
			e.Fields[key] = val
		}
	}
	if !sawDate || !sawTag {
		return Event{}, fmt.Errorf("netlogger: line missing DATE or NL.EVNT: %q", line)
	}
	return e, nil
}

// ParseLog parses a whole log (one ULM line per row), skipping blank lines.
// It stops at the first malformed line and returns the events parsed so far
// together with the error.
func ParseLog(text string) ([]Event, error) {
	var events []Event
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		e, err := ParseULM(line)
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
	return events, nil
}

// SortByTime sorts events in ascending timestamp order (stable, so same-time
// events keep their emission order).
func SortByTime(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
}
