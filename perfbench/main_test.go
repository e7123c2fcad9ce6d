package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"seesaw/internal/rollout"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the tiny size and returns the parsed
// result line and provenance.
func runTiny(t *testing.T, name, trace string) (map[string]json.RawMessage, provenance) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", trace, "--size", "tiny"}, &out, &errb)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", name, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "provenance ") {
		t.Fatalf("%s: want a provenance line before the result, got %q", name, out.String())
	}
	var prov provenance
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "provenance ")), &prov); err != nil {
		t.Fatal(err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	return res, prov
}

// TestTinyEmitsEveryMetric runs every workload in both modes at the tiny
// size and checks the result line against BENCHMARK.json: exactly the
// four keys, a correct run, and every named metric with its unit.
func TestTinyEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	if !reflect.DeepEqual(sorted, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			res, prov := runTiny(t, name, trace)
			var keys []string
			for k := range res {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
				t.Fatalf("%s: keys %v, want %v", name, keys, want)
			}
			var rep report
			raw, _ := json.Marshal(res)
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d failures=%v",
					name, trace, rep.Correct, rep.Attempted, rep.Failed, prov.Failures)
			}
			if prov.Digest == "" || prov.Digest != prov.DigestPinned {
				t.Errorf("%s trace=%s: digest %q, pinned %q", name, trace, prov.Digest, prov.DigestPinned)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", name, trace, len(rep.Metrics), len(want))
			}
			for n, u := range want {
				m, ok := rep.Metrics[n]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", name, trace, n)
					continue
				}
				if m.Unit != u {
					t.Errorf("%s trace=%s: metric %s unit %q, want %q", name, trace, n, m.Unit, u)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, n, m.Value)
				}
			}
		}
	}
}

// TestCorruptedDigestFails checks that a pinned digest that does not
// match the outputs makes the run incorrect and counts failures.
func TestCorruptedDigestFails(t *testing.T) {
	for _, name := range []string{"search-1024", "insitu-1024"} {
		cfg := runConfig{
			workload: name, seed: defaultSeed, seconds: 0.1, tiny: true,
			pinned: map[string]string{name: strings.Repeat("0", 64)},
		}
		rep, prov, err := execute(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted digest gave correct=%v failed=%d", name, rep.Correct, rep.Failed)
		}
		if len(prov.Failures) == 0 {
			t.Errorf("%s: no failure recorded", name)
		}
	}
}

// TestCapViolationFails checks that a real outcome whose final caps are
// pushed over the budget, or one cap out of its class range, is counted
// as a failure.
func TestCapViolationFails(t *testing.T) {
	in, err := search1024(defaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	p := in.points[1]
	pol, err := newPolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rollout.Run(context.Background(), p.Spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	if v := violations(searchOutcome(p, res, nil)); len(v) != 0 {
		t.Fatalf("unmodified outcome violates: %v", v)
	}
	for _, tc := range []struct {
		name   string
		mutate func(o *outcome)
	}{
		{"over budget", func(o *outcome) {
			for i := range o.caps {
				o.caps[i] = o.hi[i]
			}
		}},
		{"out of range", func(o *outcome) { o.caps[0] = o.lo[0] - 1 }},
		{"non-positive time", func(o *outcome) { o.time = 0 }},
	} {
		var prov provenance
		chk := newChecker(runConfig{workload: "search-1024", seed: defaultSeed + 1}, &prov)
		o := searchOutcome(p, res, nil)
		tc.mutate(&o)
		chk.pass([]outcome{o})
		if chk.failed != 1 || chk.attempted != 1 {
			t.Errorf("%s: attempted=%d failed=%d, want 1 and 1", tc.name, chk.attempted, chk.failed)
		}
	}
}

// TestSeedDerivesInputs checks that the seed alone fixes every input: the
// same seed gives the same grid, another seed a different one.
func TestSeedDerivesInputs(t *testing.T) {
	for name, gen := range map[string]searchGen{"search-1024": search1024, "search-mixed-256": searchMixed256, "search-telemetry-128": searchTelemetry128} {
		a, err := gen(7, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(7, false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen(8, false)
		if err != nil {
			t.Fatal(err)
		}
		if keys(a.points) != keys(b.points) {
			t.Errorf("%s: same seed gave different grids", name)
		}
		if keys(a.points) == keys(c.points) {
			t.Errorf("%s: seeds 7 and 8 gave the same grid", name)
		}
	}
	a, err := insituJobs(7, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := insituJobs(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Seed == c[0].Seed && a[0].Constraints == c[0].Constraints {
		t.Error("insitu-1024: seeds 7 and 8 gave the same jobs")
	}
}

func keys(pts []rollout.Point) string {
	var b strings.Builder
	for _, p := range pts {
		b.WriteString(p.Key)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestBadArguments checks that invalid arguments exit non-zero without a
// result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "search-1024", "--trace", "2"},
		{"--workload", "search-1024", "--size", "huge"},
		{"--workload", "search-1024", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
