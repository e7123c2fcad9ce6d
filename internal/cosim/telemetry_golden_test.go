package cosim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
)

// Pinned digests of the instrumented job below, recorded with the
// original encoding/json event encoder and per-node histogram
// observations: the JSONL stream, and the /debug/telemetry document
// (metric snapshot plus event ring) at GOMAXPROCS=1, where every metric
// has a single stripe and histogram sums are order-exact.
const (
	pinnedStreamSHA256   = "ec566eb12d6509898dec4bd0c07ad3f0a74b77ffc7f07b3604ef9b7e66b7bdf3"
	pinnedSnapshotSHA256 = "8d3d5ad42bc06ad66d739643b6608919b073221e8314109891125829a0bc8359"
)

// TestTelemetryStreamPinned runs a small seesaw job with long+short
// caps, an analysis-node kill and a simulation-node slow excursion, and
// checks that its event stream and metric snapshot reproduce the pinned
// bytes.
func TestTelemetryStreamPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var sink bytes.Buffer
	hub := telemetry.New(telemetry.Options{Sink: &sink})
	cons := smallCons()
	_, err := Run(context.Background(), Config{Spec: smallSpec(), Constraints: cons,
		Policy:  core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1}),
		CapMode: CapLongShort, Seed: 7, RunSeed: 8, Noise: machine.DefaultNoise(),
		Faults: mustPlan(t, "kill:6@5,slow:2@3x1.5+4"), Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := hub.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}

	// The stream must cover short caps and every fault transition, or
	// the digest pins less than it claims.
	kinds := map[string]int{}
	var short int
	for _, line := range strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n") {
		e, err := telemetry.Decode([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		kinds[e.Kind()]++
		if c, ok := e.(telemetry.CapWritten); ok && c.Short {
			short++
		}
	}
	for _, k := range []string{"CapWritten", "PolicyDecision", "SyncBarrier", "ThrottleEngaged",
		"BudgetViolation", "NodeKilled", "NodeDegraded", "NodeRecovered"} {
		if kinds[k] == 0 {
			t.Errorf("stream has no %s event", k)
		}
	}
	if short == 0 {
		t.Error("stream has no short-cap CapWritten event")
	}

	if got := sha256.Sum256(sink.Bytes()); hex.EncodeToString(got[:]) != pinnedStreamSHA256 {
		t.Errorf("JSONL stream sha256 = %x, want %s", got, pinnedStreamSHA256)
	}
	if got := sha256.Sum256(snap.Bytes()); hex.EncodeToString(got[:]) != pinnedSnapshotSHA256 {
		t.Errorf("/debug/telemetry snapshot sha256 = %x, want %s", got, pinnedSnapshotSHA256)
	}
}
