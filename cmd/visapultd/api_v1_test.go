package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"visapult/pkg/visapult"
)

// envelope mirrors the uniform error body every route writes on failure.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Fields  []struct {
			Field string `json:"field"`
			Code  string `json:"code"`
		} `json:"fields"`
	} `json:"error"`
}

// The canonical routes live under /api/v1 and answer without any deprecation
// marking; the pre-versioning /api paths are gone.
func TestAPIVersioningAndDeprecationHeaders(t *testing.T) {
	ts, _ := newTestServer(t, 1)

	resp, err := http.Get(ts.URL + "/api/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/runs: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Deprecation"); got != "" {
		t.Errorf("/api/v1 route carries Deprecation: %q", got)
	}

	resp, err = http.Get(ts.URL + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/runs: %d, want 404 (unversioned aliases removed)", resp.StatusCode)
	}
}

// Every error is the one JSON envelope with a stable machine-readable code.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, 1)

	for _, base := range []string{"/api/v1"} {
		resp, err := http.Get(ts.URL + base + "/runs/nope")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s/runs/nope: %d", base, resp.StatusCode)
		}
		env := decode[envelope](t, resp)
		if env.Error.Code != "unknown_run" {
			t.Errorf("%s: error code %q, want unknown_run", base, env.Error.Code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", base)
		}
	}

	// Duplicate create maps to a conflict.
	resp := postJSON(t, ts.URL+"/api/v1/runs", smallSpec("dup", false))
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/api/v1/runs", smallSpec("dup", false))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d", resp.StatusCode)
	}
	env := decode[envelope](t, resp)
	if env.Error.Code != "run_exists" {
		t.Errorf("duplicate create code %q, want run_exists", env.Error.Code)
	}
}

// An invalid spec is rejected on the shared Validate path with typed field
// errors in the envelope.
func TestInvalidSpecFieldErrors(t *testing.T) {
	ts, _ := newTestServer(t, 1)

	bad := smallSpec("bad", false)
	bad.Mode = "quantum"
	bad.PEs = -3
	resp := postJSON(t, ts.URL+"/api/v1/runs", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", resp.StatusCode)
	}
	env := decode[envelope](t, resp)
	if env.Error.Code != "invalid_spec" {
		t.Errorf("error code %q, want invalid_spec", env.Error.Code)
	}
	got := make(map[string]string)
	for _, f := range env.Error.Fields {
		got[f.Field] = f.Code
	}
	if got["mode"] != "unknown_enum" || got["pes"] != "negative" {
		t.Errorf("field errors %v, want mode=unknown_enum and pes=negative", got)
	}
}

// The cache endpoints expose the manager's frame cache: stats reflect real
// traffic and flush empties residency without resetting counters.
func TestCacheEndpoints(t *testing.T) {
	ts, mgr := newTestServer(t, 2)
	mgr.SetFrameCacheCapacity(64 << 20)

	resp, err := http.Get(ts.URL + "/api/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[visapult.FrameCacheStats](t, resp)
	if stats.Capacity != 64<<20 {
		t.Fatalf("capacity = %d, want %d", stats.Capacity, int64(64<<20))
	}

	// Render once cold, then replay the same content.
	resp = postJSON(t, ts.URL+"/api/v1/runs", smallSpec("cold", true))
	resp.Body.Close()
	waitState(t, ts.URL, "cold", "done")
	resp = postJSON(t, ts.URL+"/api/v1/runs", smallSpec("warm", true))
	resp.Body.Close()
	waitState(t, ts.URL, "warm", "done")

	resp, err = http.Get(ts.URL + "/api/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	stats = decode[visapult.FrameCacheStats](t, resp)
	if stats.Misses == 0 || stats.Hits == 0 || stats.Entries == 0 {
		t.Fatalf("cache saw no traffic: %+v", stats)
	}

	// The replayed run's metrics carry the cacheHit flag over the API.
	resp, err = http.Get(ts.URL + "/api/v1/runs/warm/metrics")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := decode[struct {
		Metrics []metricJSON `json:"metrics"`
	}](t, resp)
	metrics := wrapped.Metrics
	if len(metrics) == 0 {
		t.Fatal("warm run has no metrics")
	}
	for _, m := range metrics {
		if !m.CacheHit {
			t.Errorf("warm frame %d PE %d not served from cache", m.Frame, m.PE)
		}
	}

	resp = postJSON(t, ts.URL+"/api/v1/cache/flush", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d", resp.StatusCode)
	}
	flushed := decode[map[string]bool](t, resp)
	if !flushed["flushed"] {
		t.Errorf("flush reply = %v", flushed)
	}
	resp, err = http.Get(ts.URL + "/api/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	stats = decode[visapult.FrameCacheStats](t, resp)
	if stats.Entries != 0 || stats.Bytes != 0 {
		t.Errorf("flush left residue: %+v", stats)
	}
	if stats.Hits == 0 {
		t.Errorf("flush reset the hit counter: %+v", stats)
	}
}

// /metrics exposes the frame cache series for scrapers.
func TestPrometheusFrameCacheSeries(t *testing.T) {
	ts, mgr := newTestServer(t, 1)
	mgr.SetFrameCacheCapacity(8 << 20)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, series := range []string{
		"visapultd_framecache_hits_total",
		"visapultd_framecache_misses_total",
		"visapultd_framecache_evictions_total",
		"visapultd_framecache_entries",
		"visapultd_framecache_bytes",
		"visapultd_framecache_capacity_bytes 8388608",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}
