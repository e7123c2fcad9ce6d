// The serve subcommand: run an experiment in a loop while exposing the
// telemetry hub over HTTP, so the simulated platform can be watched with
// the same tooling as a real cluster (Prometheus scrape + curl). The
// campaign gauges (seesaw_campaign_inflight_cells,
// seesaw_campaign_cells_total) expose the live campaign state of the
// looping experiment.
//
//	seesawctl serve -addr 127.0.0.1:8077 -id fig4
//	curl http://127.0.0.1:8077/metrics          # Prometheus text format
//	curl http://127.0.0.1:8077/debug/telemetry  # JSON metrics + recent events
//	go tool pprof http://127.0.0.1:8077/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"seesaw/internal/bench"
	"seesaw/internal/telemetry"
)

// runServe loops the selected experiment in the background and serves
// live telemetry until interrupted; Ctrl-C cancels the in-flight lap and
// shuts the listener down gracefully.
func runServe(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "HTTP listen address")
	id := fs.String("id", "fig4", "experiment to loop (see 'seesawctl list')")
	steps := fs.Int("steps", 0, "override Verlet steps per run (0 = experiment default)")
	runs := fs.Int("runs", 0, "override repeated jobs per cell (0 = experiment default)")
	seed := fs.Uint64("seed", 1, "base seed")
	jobs := fs.Int("jobs", 0, "max experiment cells in flight (0 = GOMAXPROCS)")
	once := fs.Bool("once", false, "run the experiment once instead of looping (serving continues)")
	telPath := fs.String("telemetry", "", "additionally stream telemetry events to this file as JSON Lines")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	e, ok := bench.Get(*id)
	if !ok {
		fmt.Fprintln(os.Stderr, bench.UnknownExperimentError(*id))
		return 1
	}

	var hub *telemetry.Hub
	var closeHub func()
	if *telPath != "" {
		hub, closeHub = mustOpenHub(*telPath)
	} else {
		hub, closeHub = telemetry.New(telemetry.Options{}), func() {}
	}
	defer closeHub()

	// Bind before starting the experiment so a bad -addr fails fast.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seesawctl:", err)
		return 1
	}

	o := bench.Options{Steps: *steps, Runs: *runs, BaseSeed: *seed, Jobs: *jobs, Telemetry: hub}
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for i := 0; ; i++ {
			// Vary the seed per lap so the metrics keep moving; the first
			// lap reproduces the artifact exactly as 'seesawctl run' would.
			lap := o
			lap.BaseSeed = o.BaseSeed + uint64(i)*1000003
			fmt.Fprintf(os.Stderr, "seesawctl serve: %s lap %d (seed %d)\n", e.ID, i+1, lap.BaseSeed)
			if err := e.Run(ctx, lap, discard{}); err != nil {
				if ctx.Err() == nil {
					fmt.Fprintf(os.Stderr, "seesawctl serve: %s: %v\n", e.ID, err)
				}
				return
			}
			if *once {
				fmt.Fprintf(os.Stderr, "seesawctl serve: %s done; still serving\n", e.ID)
				return
			}
		}
	}()

	srv := &http.Server{Handler: serveMux(hub)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "seesawctl serve: listening on http://%s (/metrics, /debug/telemetry, /debug/pprof/)\n", ln.Addr())

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "seesawctl:", err)
			return 1
		}
		return 0
	case <-ctx.Done():
		// Wait for the experiment loop to unwind its rank goroutines,
		// then drain in-flight HTTP requests.
		<-loopDone
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "seesawctl:", err)
		}
		fmt.Fprintln(os.Stderr, "seesawctl serve: interrupted")
		return 130
	}
}

// serveMux routes serve's endpoints: Prometheus text at /metrics, the
// JSON metric snapshot plus recent events at /debug/telemetry, and the
// Go runtime profiles under /debug/pprof/ (CPU, heap, goroutine, ...),
// so a looping experiment can be profiled while it runs.
func serveMux(hub *telemetry.Hub) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := hub.Registry().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := hub.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// discard swallows the experiment's table output; serve readers consume
// the metrics endpoints instead.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
