package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seesaw/internal/telemetry"
)

// TestServeMux GETs each endpoint serve mounts against a hub with one
// recorded synchronization and checks status and content.
func TestServeMux(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	hub.SyncBarrier(1.5, 1, 1.5, 1.5, 1.2, 0.2, 0)
	srv := httptest.NewServer(serveMux(hub))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	if m := get("/metrics"); !strings.Contains(m, "seesaw_sync_total 1") {
		t.Errorf("/metrics lacks seesaw_sync_total 1:\n%s", m)
	}
	var doc struct {
		Metrics []telemetry.FamilySnapshot `json:"metrics"`
		Events  []json.RawMessage          `json:"events"`
	}
	if err := json.Unmarshal([]byte(get("/debug/telemetry")), &doc); err != nil {
		t.Fatalf("/debug/telemetry is not JSON: %v", err)
	}
	if len(doc.Metrics) == 0 || len(doc.Events) != 1 {
		t.Errorf("/debug/telemetry: %d families, %d events; want some families and 1 event",
			len(doc.Metrics), len(doc.Events))
	}
	if p := get("/debug/pprof/"); !strings.Contains(p, "goroutine") {
		t.Errorf("/debug/pprof/ index lacks the goroutine profile:\n%s", p)
	}
	if g := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(g, "goroutine profile") {
		t.Errorf("/debug/pprof/goroutine?debug=1 unexpected body:\n%.200s", g)
	}
}
