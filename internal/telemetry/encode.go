// Event encoding: every event kind appends its JSONL envelope by hand,
// field by field in struct-tag order, so the sink path pays no
// reflection and no intermediate marshal of the payload. The bytes are
// exactly what encoding/json produces for the envelope
// {"kind":...,"data":<json.Marshal(event)>}; encode_test.go and
// FuzzEncode hold the two to byte identity. Strings keep encoding/json's
// HTML-safe form (<, > and & as \u00XX escapes), so the workflow
// engine's "sim->ana" edges stay on the hand-written path. A string
// outside printable ASCII or holding a control, quote or backslash, or
// a non-finite float, sends the whole event through encoding/json
// instead, so those escapes and the unsupported-value error come from
// the one implementation that defines them. Only user-chosen names (a
// jobfile's job or a topology's stage, say) can take that path; the
// node, role, policy, campaign-key and edge names the simulator builds
// are plain ASCII.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// jsonWriter appends the fields of one JSON object. ok turns false once
// a value needs encoding/json; the caller then discards the buffer.
type jsonWriter struct {
	b   []byte
	sep byte // '{' before the first field, ',' after it
	ok  bool
}

func (w *jsonWriter) key(k string) {
	w.b = append(w.b, w.sep, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
	w.sep = ','
}

// float appends v as encoding/json formats a float64: shortest 'f'
// form, switching to 'e' below 1e-6 and at or above 1e21, with a
// two-digit negative exponent trimmed (e-07 becomes e-7).
func (w *jsonWriter) float(k string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.ok = false
		return
	}
	w.key(k)
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if format == 'e' {
		n := len(w.b)
		if n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

func (w *jsonWriter) int(k string, v int64) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *jsonWriter) bool(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

// str appends s as encoding/json does for printable ASCII: verbatim,
// except that the HTML-sensitive <, > and & are written as \u003c,
// \u003e and \u0026. Any other byte JSON escapes (controls, the quote,
// the backslash) or any byte outside ASCII hands the event back.
func (w *jsonWriter) str(k, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			w.ok = false
			return
		}
	}
	w.key(k)
	w.b = append(w.b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '<':
			w.b = append(w.b, `\u003c`...)
		case '>':
			w.b = append(w.b, `\u003e`...)
		case '&':
			w.b = append(w.b, `\u0026`...)
		default:
			w.b = append(w.b, c)
		}
	}
	w.b = append(w.b, '"')
}

// appendEvent appends e's JSONL envelope (without trailing newline) to
// b. On error b is returned unchanged.
func appendEvent(b []byte, e Event) ([]byte, error) {
	start := len(b)
	w := jsonWriter{b: b, sep: '{', ok: true}
	w.str("kind", e.Kind())
	w.key("data")
	w.sep = '{'
	w = e.appendData(w)
	if w.ok { // every kind writes at least its first field
		return append(w.b, '}', '}'), nil
	}
	line, err := marshalEnvelope(e)
	if err != nil {
		return b[:start], err
	}
	return append(w.b[:start], line...), nil
}

// envelope is the JSONL wire form: {"kind": "...", "data": {...}}.
type envelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// marshalEnvelope is the encoding/json form of the envelope, for the
// events the appenders hand back.
func marshalEnvelope(e Event) ([]byte, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("telemetry: encode %s: %w", e.Kind(), err)
	}
	return json.Marshal(envelope{Kind: e.Kind(), Data: data})
}

// Encode renders an event as one JSONL line (without trailing newline).
func Encode(e Event) ([]byte, error) {
	return appendEvent(nil, e)
}

// The appenders list each event's fields in declaration order with the
// struct tags' names; omitempty fields are skipped at their zero value.

func (e CapWritten) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.str("node", e.Node)
	w.float("cap_w", e.CapW)
	if e.Short {
		w.bool("short", true)
	}
	return w
}

func (e PolicyDecision) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.str("policy", e.Policy)
	w.int("step", int64(e.Step))
	w.float("prev_sim_cap_w", e.PrevSimCapW)
	w.float("prev_ana_cap_w", e.PrevAnaCapW)
	w.float("sim_cap_w", e.SimCapW)
	w.float("ana_cap_w", e.AnaCapW)
	w.float("shift_w", e.ShiftW)
	w.str("direction", e.Direction)
	return w
}

func (e SyncBarrier) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.int("step", int64(e.Step))
	w.float("wall_s", e.WallS)
	w.float("sim_s", e.SimS)
	w.float("ana_s", e.AnaS)
	w.float("slack", e.Slack)
	if e.Overhead != 0 {
		w.float("overhead_s", e.Overhead)
	}
	return w
}

func (e BudgetViolation) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.str("node", e.Node)
	w.float("observed_w", e.ObservedW)
	w.float("limit_w", e.LimitW)
	return w
}

func (e ThrottleEngaged) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.str("node", e.Node)
	w.float("demand_w", e.DemandW)
	w.float("allowed_w", e.AllowedW)
	return w
}

func (e CampaignCell) appendData(w jsonWriter) jsonWriter {
	w.str("campaign", e.Campaign)
	w.str("key", e.Key)
	w.str("status", e.Status)
	w.float("seconds", e.Seconds)
	w.int("done", int64(e.Done))
	w.int("total", int64(e.Total))
	return w
}

func (e BudgetShare) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.int("epoch", int64(e.Epoch))
	w.str("job", e.Job)
	w.float("budget_w", e.BudgetW)
	w.float("share", e.Share)
	return w
}

func (e NodeKilled) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.int("node", int64(e.Node))
	w.str("role", e.Role)
	w.int("sync", int64(e.Sync))
	w.int("alive_sim", int64(e.AliveSim))
	w.int("alive_ana", int64(e.AliveAna))
	return w
}

func (e NodeDegraded) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.int("node", int64(e.Node))
	w.str("role", e.Role)
	w.int("sync", int64(e.Sync))
	w.float("factor", e.Factor)
	return w
}

func (e NodeRecovered) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.int("node", int64(e.Node))
	w.str("role", e.Role)
	w.int("sync", int64(e.Sync))
	return w
}

func (e StageStart) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.str("stage", e.Stage)
	w.int("sync", int64(e.Sync))
	return w
}

func (e StageEnd) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.str("stage", e.Stage)
	w.int("sync", int64(e.Sync))
	w.float("busy_s", e.BusyS)
	return w
}

func (e TransferVolume) appendData(w jsonWriter) jsonWriter {
	w.float("t", e.T)
	w.str("edge", e.Edge)
	w.int("sync", int64(e.Sync))
	w.int("bytes", e.Bytes)
	w.float("seconds", e.Seconds)
	return w
}
