package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// stageFabricDatasets stages n small datasets straight into the test
// federation.
func stageFabricDatasets(t *testing.T, fb interface {
	LoadBytes(ctx context.Context, name string, data []byte, blockSize int) ([]string, error)
}, n int) {
	t.Helper()
	data := make([]byte, 24*1024)
	for i := range data {
		data[i] = byte(i % 239)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("set.t%04d", i)
		if _, err := fb.LoadBytes(context.Background(), name, data, 8*1024); err != nil {
			t.Fatalf("staging %s: %v", name, err)
		}
	}
}

func TestDPSSRebalanceDrainJob(t *testing.T) {
	ts, fb, clusters := newFabricTestServer(t)
	stageFabricDatasets(t, fb, 3)

	// Validation: bad kind, drain without a cluster.
	resp := postJSON(t, ts.URL+"/api/v1/dpss/rebalance", map[string]any{"kind": "nonsense"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind = %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/v1/dpss/rebalance", map[string]any{"kind": "drain"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("drain without cluster = %d, want 400", resp.StatusCode)
	}

	// Drain site1 to empty through the async job API.
	started := decode[struct {
		ID string `json:"id"`
	}](t, postJSON(t, ts.URL+"/api/v1/dpss/rebalance", map[string]any{"kind": "drain", "cluster": "site1"}))
	if started.ID == "" {
		t.Fatal("no job id")
	}

	deadline := time.Now().Add(15 * time.Second)
	var job rebalJobJSON
	for {
		job = decode[rebalJobJSON](t, mustGet(t, ts.URL+"/api/v1/dpss/rebalance/"+started.ID))
		if job.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance job stuck running: %+v", job)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if job.State != "done" {
		t.Fatalf("job = %+v, want done", job)
	}
	if job.Kind != "drain" || job.Cluster != "site1" || job.Epoch != 1 {
		t.Fatalf("job = %+v, want drain of site1 onto epoch 1", job)
	}
	if held := clusters[1].Master.Datasets(); len(held) != 0 {
		t.Fatalf("drained site1 still catalogs %v", held)
	}

	// The job shows up in the listing, the overview reports the new epoch,
	// and an unknown job 404s.
	jobs := decode[struct {
		Jobs []rebalJobJSON `json:"jobs"`
	}](t, mustGet(t, ts.URL+"/api/v1/dpss/rebalance"))
	if len(jobs.Jobs) != 1 || jobs.Jobs[0].ID != started.ID {
		t.Fatalf("job list = %+v", jobs)
	}
	overview := decode[struct {
		Epoch epochJSON `json:"epoch"`
	}](t, mustGet(t, ts.URL+"/api/v1/dpss"))
	if overview.Epoch.Version != 1 || overview.Epoch.Migrating {
		t.Fatalf("overview epoch = %+v, want sealed version 1", overview.Epoch)
	}
	resp = mustGet(t, ts.URL+"/api/v1/dpss/rebalance/rebal-999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestPrometheusMetricsEndpoint(t *testing.T) {
	ts, fb, _ := newFabricTestServer(t)
	stageFabricDatasets(t, fb, 1)

	// One pending run so the state gauges have something to show.
	resp := postJSON(t, ts.URL+"/api/v1/runs", map[string]any{
		"name":   "gauge-me",
		"source": map[string]any{"kind": "combustion", "nx": 8, "ny": 4, "nz": 4, "timesteps": 1},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create run = %d", resp.StatusCode)
	}

	metrics := mustGet(t, ts.URL+"/metrics")
	defer metrics.Body.Close()
	if ct := metrics.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(metrics.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`visapultd_runs{state="pending"} 1`,
		`visapultd_runs{state="running"} 0`,
		"visapultd_worker_slots_in_use 0",
		"visapultd_worker_slots_capacity 1",
		`visapultd_dpss_cluster_healthy{cluster="site0"} 1`,
		`visapultd_dpss_cluster_failures{cluster="site1"} 0`,
		"visapultd_dpss_placement_epoch 0",
		"visapultd_dpss_rebalance_running 0",
		"# TYPE visapultd_runs gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestPruneEndpointDropsTerminalRuns(t *testing.T) {
	ts, mgr := newTestServer(t, 1)

	resp := postJSON(t, ts.URL+"/api/v1/runs", map[string]any{
		"name": "gc-me", "start": true,
		"source": map[string]any{"kind": "combustion", "nx": 8, "ny": 4, "nz": 4, "timesteps": 1},
	})
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := mgr.Wait(ctx, "gc-me"); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	// Not old enough yet.
	out := decode[map[string]int](t, postJSON(t, ts.URL+"/api/v1/runs/prune", map[string]any{"olderThan": "1h"}))
	if out["pruned"] != 0 {
		t.Fatalf("young run pruned: %+v", out)
	}
	// Empty body prunes every terminal run.
	out = decode[map[string]int](t, postJSON(t, ts.URL+"/api/v1/runs/prune", nil))
	if out["pruned"] != 1 {
		t.Fatalf("pruned = %+v, want 1", out)
	}
	resp = mustGet(t, ts.URL+"/api/v1/runs/gc-me")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pruned run still present: %d", resp.StatusCode)
	}
	// Bad duration is a 400.
	resp = postJSON(t, ts.URL+"/api/v1/runs/prune", map[string]any{"olderThan": "soon"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad olderThan = %d, want 400", resp.StatusCode)
	}
}
