package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"
)

// oracleEncode is the reference wire form: encoding/json's rendering of
// the envelope {"kind":...,"data":<json.Marshal(e)>}, with the error
// wrapping Encode has always used.
func oracleEncode(e Event) ([]byte, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("telemetry: encode %s: %w", e.Kind(), err)
	}
	return json.Marshal(struct {
		Kind string          `json:"kind"`
		Data json.RawMessage `json:"data"`
	}{e.Kind(), data})
}

// fuzzEvent builds event kind k (mod 13) from the fuzzer's value slots.
func fuzzEvent(k uint8, f [6]float64, s [3]string, n [3]int64, b bool) Event {
	switch k % 13 {
	case 0:
		return CapWritten{T: f[0], Node: s[0], CapW: f[1], Short: b}
	case 1:
		return PolicyDecision{T: f[0], Policy: s[0], Step: int(n[0]), PrevSimCapW: f[1], PrevAnaCapW: f[2],
			SimCapW: f[3], AnaCapW: f[4], ShiftW: f[5], Direction: s[1]}
	case 2:
		return SyncBarrier{T: f[0], Step: int(n[0]), WallS: f[1], SimS: f[2], AnaS: f[3], Slack: f[4], Overhead: f[5]}
	case 3:
		return BudgetViolation{T: f[0], Node: s[0], ObservedW: f[1], LimitW: f[2]}
	case 4:
		return ThrottleEngaged{T: f[0], Node: s[0], DemandW: f[1], AllowedW: f[2]}
	case 5:
		return CampaignCell{Campaign: s[0], Key: s[1], Status: s[2], Seconds: f[0], Done: int(n[0]), Total: int(n[1])}
	case 6:
		return BudgetShare{T: f[0], Epoch: int(n[0]), Job: s[0], BudgetW: f[1], Share: f[2]}
	case 7:
		return NodeKilled{T: f[0], Node: int(n[0]), Role: s[0], Sync: int(n[1]), AliveSim: int(n[2]), AliveAna: int(n[0] ^ n[1])}
	case 8:
		return NodeDegraded{T: f[0], Node: int(n[0]), Role: s[0], Sync: int(n[1]), Factor: f[1]}
	case 9:
		return NodeRecovered{T: f[0], Node: int(n[0]), Role: s[0], Sync: int(n[1])}
	case 10:
		return StageStart{T: f[0], Stage: s[0], Sync: int(n[0])}
	case 11:
		return StageEnd{T: f[0], Stage: s[0], Sync: int(n[0]), BusyS: f[1]}
	default:
		return TransferVolume{T: f[0], Edge: s[0], Sync: int(n[0]), Bytes: n[1], Seconds: f[1]}
	}
}

// checkEncode asserts Encode matches the oracle byte for byte (or fails
// with the oracle's error) and that Decode inverts it.
func checkEncode(t *testing.T, e Event, utf8Clean bool) {
	t.Helper()
	want, wantErr := oracleEncode(e)
	got, err := Encode(e)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("Encode(%#v) err = %v, want %v", e, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("Encode(%#v): %v", e, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode(%#v)\n got %s\nwant %s", e, got, want)
	}
	back, err := Decode(got)
	if err != nil {
		t.Fatalf("Decode(%s): %v", got, err)
	}
	// Invalid UTF-8 decodes as U+FFFD, so only clean strings round-trip.
	if utf8Clean && !reflect.DeepEqual(back, e) {
		t.Fatalf("round trip: got %#v, want %#v", back, e)
	}
}

// encodeFloatEdges exercises every float-formatting branch: zeros,
// subnormals, both sides of the 1e-6 and 1e21 'e' thresholds, a
// two-digit negative exponent, and the non-finite values that must
// still fail.
var encodeFloatEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, 1e-7, 9.999999e-7, 1e-6,
	0.1, 110.5, 1e20, 1e21, -1e21, 1.7976931348623157e308, 123456789012345678,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// encodeStringEdges covers the plain fast path and every reason to fall
// back: HTML-escaped characters, JSON escapes, controls, U+2028/U+2029,
// other non-ASCII and invalid UTF-8.
var encodeStringEdges = []string{
	"", "sim", "rdf/seesaw/r0", "sim->ana", "<>&", "a\"b", `back\slash`, "tab\there", "\x00",
	"\u2028\u2029", "é", "\xff", "ok\x80",
}

func FuzzEncode(f *testing.F) {
	for k := uint8(0); k < 13; k++ {
		for i, v := range encodeFloatEdges {
			fl := [6]float64{v, 110, 1.25, 0.001, 0.2, 5}
			fl[i%6] = v
			f.Add(k, fl[0], fl[1], fl[2], fl[3], fl[4], fl[5], "sim", "to-sim", "ok", int64(i), int64(-3), int64(1<<40), i%2 == 0)
		}
		for i, s := range encodeStringEdges {
			f.Add(k, 1.5, 0.0, 2.0, 0.0, 1e-9, 0.0, s, "hold", s+"x", int64(0), int64(i), int64(7), false)
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, f0, f1, f2, f3, f4, f5 float64, s0, s1, s2 string, n0, n1, n2 int64, b bool) {
		s := [3]string{s0, s1, s2}
		clean := utf8.ValidString(s0) && utf8.ValidString(s1) && utf8.ValidString(s2)
		checkEncode(t, fuzzEvent(k, [6]float64{f0, f1, f2, f3, f4, f5}, s, [3]int64{n0, n1, n2}, b), clean)
	})
}

// TestEncodeAppendsAfterFallback checks that an event sent through the
// encoding/json fallback lands after bytes already in the buffer and
// that a failed encode leaves them untouched.
func TestEncodeAppendsAfterFallback(t *testing.T) {
	prefix := []byte("prefix|")
	line, err := appendEvent(append([]byte(nil), prefix...), CapWritten{Node: "sim\"0", CapW: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracleEncode(CapWritten{Node: "sim\"0", CapW: 1})
	if !bytes.Equal(line, append(prefix, want...)) {
		t.Errorf("fallback append = %s", line)
	}
	line, err = appendEvent(append([]byte(nil), prefix...), CapWritten{CapW: math.NaN()})
	if err == nil || !bytes.Equal(line, prefix) {
		t.Errorf("NaN append = %q, %v; want prefix and an error", line, err)
	}
}

// TestEncodeFastPath checks that the strings the simulator itself
// builds, HTML-escaped characters included, stay on the hand-written
// path and still match the oracle.
func TestEncodeFastPath(t *testing.T) {
	for _, e := range []Event{
		TransferVolume{T: 12.5, Edge: "sim->ana", Sync: 3, Bytes: 1 << 20, Seconds: 0.004},
		TransferVolume{T: 1, Edge: "ana->viz&store", Sync: 1},
		CapWritten{T: 3, Node: "<sim>", CapW: 110, Short: true},
		StageStart{T: 0.5, Stage: "md", Sync: 1},
		CampaignCell{Campaign: "search", Key: "s0/seesaw", Status: "done", Seconds: 0.1, Done: 1, Total: 4},
		PolicyDecision{T: 2, Policy: "seesaw", Step: 1, SimCapW: 120, AnaCapW: 100, ShiftW: 5, Direction: "to-sim"},
	} {
		if w := e.appendData(jsonWriter{sep: '{', ok: true}); !w.ok {
			t.Errorf("%#v fell back to encoding/json", e)
		}
		checkEncode(t, e, true)
	}
}

// TestEmitWithSinkAllocs guards the sink path's allocation budget: the
// encode buffer is pooled, so an Emit costs only the event's interface
// box and the ring slot pointer.
func TestEmitWithSinkAllocs(t *testing.T) {
	h := New(Options{Sink: io.Discard})
	allocs := testing.AllocsPerRun(1000, func() {
		h.Emit(SyncBarrier{T: 78.91724594999808, Step: 3, WallS: 78.91724594999808, SimS: 78.9,
			AnaS: 60.37960932342669, Slack: 0.23489969021874915, Overhead: 0.000011096})
	})
	if allocs > 2 {
		t.Errorf("Emit with a sink: %v allocs/op, want <= 2", allocs)
	}
}
