package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned digests were taken at.
const defaultSeed = 1

//go:embed pinned.json
var pinnedJSON []byte

// pins is the embedded pinned.json: per-size, per-workload output
// digests at defaultSeed.
type pins struct {
	DefaultSeed uint64                       `json:"default_seed"`
	Digests     map[string]map[string]string `json:"digests"`
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return p, fmt.Errorf("pinned.json: %w", err)
	}
	if p.DefaultSeed != defaultSeed {
		return p, fmt.Errorf("pinned.json: default_seed %d, benchmark default %d", p.DefaultSeed, defaultSeed)
	}
	return p, nil
}

// provenance records what a result was measured on. It is printed on its
// own line before the result line.
type provenance struct {
	Workload     string         `json:"workload"`
	Mode         string         `json:"mode"`
	Size         string         `json:"size"`
	Seed         uint64         `json:"seed"`
	DefaultSeed  uint64         `json:"default_seed"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	GoVersion    string         `json:"go_version"`
	CPUModel     string         `json:"cpu_model"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Workers      int            `json:"workers"`
	Digest       string         `json:"digest,omitempty"`
	DigestPinned string         `json:"digest_pinned,omitempty"`
	Samples      map[string]int `json:"samples"`
	// UnitSeconds are the timed phase's per-unit host seconds (one Batch
	// pass or one in-situ job each), in run order.
	UnitSeconds []float64 `json:"unit_seconds,omitempty"`
	// LedgerReplicaExact reports whether the kernel ledger's outside
	// replica reproduced the real episodes bit for bit.
	LedgerReplicaExact *bool `json:"ledger_replica_exact,omitempty"`
	// NotApplicable lists per-layer metrics reported as 0 because the
	// workload does not execute that layer.
	NotApplicable []string `json:"not_applicable,omitempty"`
	Failures      []string `json:"failures"`
}

func newProvenance(cfg runConfig) provenance {
	mode, size := "untraced", "full"
	if cfg.trace {
		mode = "traced"
	}
	if cfg.tiny {
		size = "tiny"
	}
	root := repoRoot()
	return provenance{
		Workload:     cfg.workload,
		Mode:         mode,
		Size:         size,
		Seed:         cfg.seed,
		DefaultSeed:  defaultSeed,
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      workers(),
		Samples:      map[string]int{},
	}
}

// fail records one failed check.
func (p *provenance) fail(format string, args ...any) {
	const maxFailures = 20
	if len(p.Failures) < maxFailures {
		p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
	}
}

// workers is the campaign worker count: closed-loop, never more than the
// machine's processors, capped at 2 so results compare across hosts.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// repoRoot finds the simulator's source tree: the working directory or
// its parent, whichever holds internal/.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "internal")); err == nil && st.IsDir() {
			return dir
		}
	}
	return "."
}

// gitCommit returns HEAD of the source tree, or "unknown" outside a git
// checkout.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file under internal/, so a
// result identifies the simulator source even without git.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	files = append(files, filepath.Join(root, "go.mod"))
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

// heapSampler tracks the peak live Go heap while it runs: the largest
// heap the collector found live at the end of a cycle.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

// startHeapSampler samples the live heap every 5 ms until stopped.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// runtimeSnap is a point-in-time read of the Go runtime counters the
// go.* metrics are deltas of.
type runtimeSnap struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	snap := runtimeSnap{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = s[1].Value.Float64()
	}
	return snap
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
