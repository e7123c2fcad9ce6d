// Command perfbench is the repository benchmark: one command that runs
// a named workload against the seesaw simulator, checks the simulated
// outputs, and prints the end-to-end metrics (untraced run) or the
// per-layer ledger (traced run) as the last line of standard output.
//
//	go run . --workload search-1024 --seed 1 --seconds 10 --trace 0
//
// It imports the simulator's internal packages and times only calls into
// their exported functions; it changes no program code. Every workload is
// closed-loop: one Batch call or one in-situ job at a time, with at most
// min(2, NumCPU) campaign workers. All inputs derive from --seed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	// pinned maps workload name to the digest expected at this size for
	// the default seed; nil entries are not checked.
	pinned map[string]string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, executes one workload and writes the result; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every job seed and grid value derives from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	size := fs.String("size", "full", "input size: full, or tiny for the benchmark's own tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *size != "full" && *size != "tiny" {
		fmt.Fprintf(stderr, "perfbench: --size must be full or tiny, got %q\n", *size)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		tiny:     *size == "tiny",
		pinned:   pins.Digests[*size],
	}
	rep, prov, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute runs one workload in the configured mode.
func execute(ctx context.Context, cfg runConfig) (report, provenance, error) {
	w := workloads[cfg.workload]
	prov := newProvenance(cfg)
	var (
		rep report
		err error
	)
	if cfg.trace {
		rep, err = w.traced(ctx, cfg, &prov)
	} else {
		rep, err = w.untraced(ctx, cfg, &prov)
	}
	if err != nil {
		return report{}, prov, err
	}
	if prov.Failures == nil {
		prov.Failures = []string{}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, prov, nil
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
