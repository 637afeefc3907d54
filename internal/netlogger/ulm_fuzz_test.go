package netlogger

import (
	"maps"
	"testing"
	"time"
)

// FuzzParseULM feeds ParseULM arbitrary lines, as netlogd does with what its
// TCP clients send: it must never panic. It also builds an event from the
// fuzzed tag, time, level and field, and checks that the line Event.ULM
// writes parses back to the same tag, time, level and fields in their
// written (sanitized) form.
func FuzzParseULM(f *testing.F) {
	seed := Event{
		Time: time.Date(2000, 4, 12, 9, 30, 15, 123456789, time.UTC),
		Host: "dpss1", Prog: "visapult", Tag: BELoadEnd, Level: 1,
		Fields: map[string]string{FieldFrame: "3", FieldPE: "1", FieldBytes: "1048576"},
	}
	f.Add(seed.ULM(), seed.Tag, FieldBytes, "1048576", seed.Time.UnixNano(), 1)
	// Field keys that spell a header keyword.
	for _, key := range []string{"DATE", "HOST", "PROG", "LVL", "NL.EVNT"} {
		f.Add("", BEFrameStart, key, "x", int64(0), 0)
	}
	for _, line := range []string{
		"",
		"=",
		"no equals sign here",
		"DATE=20000412093015.123456",
		"NL.EVNT=FOO",
		"DATE= NL.EVNT=",
		"DATE=notadate NL.EVNT=FOO",
		"DATE=20000412093015.123456 NL.EVNT=F LVL=x",
		"DATE=20000412093015.123456 NL.EVNT=F LVL=99999999999999999999",
		"DATE=99999999999999.999999 NL.EVNT=F",
		"DATE=20000412093015.123456 NL.EVNT=F ==x =y z=",
		"DATE=20000412093015.123456 NL.EVNT=F\x00\xff=\xfe",
	} {
		f.Add(line, "TAG WITH SPACE", "k=ey", "v\u2003al", int64(-1), -7)
	}
	f.Fuzz(func(t *testing.T, line, tag, key, val string, nanos int64, level int) {
		_, _ = ParseULM(line) // only panics matter for arbitrary input

		e := Event{
			Time: time.Unix(0, nanos), Host: "host", Prog: "prog", Tag: tag, Level: level,
			Fields: map[string]string{FieldFrame: "7", key: val},
		}
		got, err := ParseULM(e.ULM())
		if err != nil {
			t.Fatalf("ParseULM(%q): %v", e.ULM(), err)
		}
		if got.Tag != sanitize(tag) {
			t.Errorf("tag = %q, want %q", got.Tag, sanitize(tag))
		}
		if want := e.Time.UTC().Truncate(time.Microsecond); !got.Time.Equal(want) {
			t.Errorf("time = %v, want %v", got.Time, want)
		}
		if got.Level != level {
			t.Errorf("level = %d, want %d", got.Level, level)
		}
		want := map[string]string{}
		for k, v := range e.Fields {
			want[fieldKey(k)] = sanitize(v)
		}
		if !maps.Equal(got.Fields, want) {
			t.Errorf("fields = %q, want %q", got.Fields, want)
		}
	})
}
