package censysmap

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/telemetry"
)

// TestMetricsEndpointPrometheus checks the default text exposition of
// GET /v2/metrics: content type, HELP/TYPE headers, and the presence of the
// core metric families a scraped dashboard would be built on.
func TestMetricsEndpointPrometheus(t *testing.T) {
	sys := smallSystem(t)
	sys.Run(26 * time.Hour)
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v2/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# HELP censys_core_ticks_total",
		"# TYPE censys_core_ticks_total counter",
		"censys_cqrs_events_total{kind=\"service_found\"}",
		"censys_discovery_probes_total{result=\"open\"}",
		"censys_search_result_cache_total{outcome=\"hit\"}",
		"censys_paper_coverage_ratio",
		"censys_paper_freshness_hours_bucket",
		"censys_journal_appends_total{partition=\"0\"}",
		"censys_simnet_drops_total{cause=\"loss\"}",
		// This request itself is counted before the snapshot is taken.
		"censys_lookup_requests_total{route=\"GET /v2/metrics\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text exposition missing %q", want)
		}
	}
	// A day of scanning the default universe loses probes on the path, and
	// the running system says how many.
	if strings.Contains(text, "censys_simnet_drops_total{cause=\"loss\"} 0\n") {
		t.Error("a day of scanning counted no path loss")
	}
}

// TestMetricsEndpointJSON checks the ?format=json exposition: it must parse
// into the snapshot+traces document, agree with the Go-level accessors, and
// carry sampled trace spans.
func TestMetricsEndpointJSON(t *testing.T) {
	pcfg := core.DefaultConfig()
	pcfg.TraceSample = 1 // trace every address
	sys, err := NewSystem(Options{
		Universe: netip.MustParsePrefix("10.0.0.0/22"),
		Seed:     7,
		Pipeline: &pcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(26 * time.Hour)
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()

	resp, err2 := srv.Client().Get(srv.URL + "/v2/metrics?format=json")
	if err2 != nil {
		t.Fatal(err2)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc struct {
		Metrics telemetry.Snapshot `json:"metrics"`
		Traces  []telemetry.Span   `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics.Families) == 0 {
		t.Fatal("JSON exposition carries no metric families")
	}
	if !doc.Metrics.At.Equal(sys.Now()) {
		t.Errorf("snapshot stamped %v, sim clock is %v", doc.Metrics.At, sys.Now())
	}
	ticks, ok := doc.Metrics.Get("censys_core_ticks_total", nil)
	if !ok || ticks.Value == 0 {
		t.Fatalf("censys_core_ticks_total = %+v, ok=%v", ticks, ok)
	}
	cov, ok := doc.Metrics.Get("censys_paper_coverage_ratio", nil)
	if !ok || cov.Value <= 0 || cov.Value > 1.0 {
		t.Fatalf("censys_paper_coverage_ratio = %+v, ok=%v", cov, ok)
	}
	fresh, ok := doc.Metrics.Get("censys_paper_freshness_hours", nil)
	if !ok || fresh.Count == 0 || len(fresh.Buckets) == 0 {
		t.Fatalf("censys_paper_freshness_hours = %+v, ok=%v", fresh, ok)
	}
	if len(doc.Traces) == 0 {
		t.Fatal("no trace spans in JSON exposition")
	}
	if got := sys.Traces(); len(got) != len(doc.Traces) {
		t.Errorf("HTTP traces = %d, System.Traces = %d", len(doc.Traces), len(got))
	}
	for _, span := range doc.Traces {
		for i := 1; i < len(span.Events); i++ {
			if span.Events[i].Time.Before(span.Events[i-1].Time) {
				t.Fatalf("span %s events out of order at %d", span.Target, i)
			}
		}
	}
}

// TestMetricsDisabled: with DisableTelemetry the pipeline runs bare — no
// registry, no snapshot families, and /v2/metrics answers 404.
func TestMetricsDisabled(t *testing.T) {
	sys, err := NewSystem(Options{
		Universe:         netip.MustParsePrefix("10.0.0.0/23"),
		Seed:             7,
		DisableTelemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(4 * time.Hour)
	if sys.Metrics() != nil {
		t.Fatal("DisableTelemetry left a registry attached")
	}
	if snap := sys.MetricsSnapshot(); len(snap.Families) != 0 {
		t.Fatalf("disabled snapshot has %d families", len(snap.Families))
	}
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v2/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("disabled /v2/metrics status = %d, want 404", resp.StatusCode)
	}
}
