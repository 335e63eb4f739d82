package broker

import (
	"strings"
	"testing"
)

// FuzzEventCodec checks the wire codec on two inputs at once: wire is
// arbitrary bytes from a peer, which Decode must answer without
// panicking (and, when it accepts them, with an event that survives a
// round trip); topic, seq and payload build an event, which must
// decode back to itself whenever its topic is a legal one, free of the
// field separator. Plain `go test` runs the seeds below and the
// checked-in corpus in testdata/fuzz/FuzzEventCodec; `go test -fuzz
// FuzzEventCodec ./internal/broker` searches further.
func FuzzEventCodec(f *testing.F) {
	f.Add("t", uint64(1), "p", "t\x1e1\x1ep")
	f.Add("", uint64(0), "", "")
	f.Add("orders", uint64(1<<64-1), "a\x1eb\x1e", "\x1e\x1e")
	f.Add("x", uint64(42), "\x1e", "x\x1e-1\x1ep")
	f.Add("bad\x1etopic", uint64(3), "p", "t\x1e18446744073709551616\x1e")
	f.Fuzz(func(t *testing.T, topic string, seq uint64, payload string, wire string) {
		if e, ok := EventCodec.Decode(wire); ok {
			if strings.Contains(e.Topic, evSep) {
				t.Fatalf("Decode(%q) gave topic %q holding the separator", wire, e.Topic)
			}
			if again, ok := EventCodec.Decode(EventCodec.Encode(e)); !ok || again != e {
				t.Fatalf("Decode(%q) = %+v, which re-decodes as %+v ok=%v", wire, e, again, ok)
			}
		}
		if strings.Contains(topic, evSep) {
			return
		}
		e := Event{Topic: topic, Seq: seq, Payload: payload}
		if got, ok := EventCodec.Decode(EventCodec.Encode(e)); !ok || got != e {
			t.Fatalf("round trip of %+v: got %+v ok=%v", e, got, ok)
		}
	})
}
