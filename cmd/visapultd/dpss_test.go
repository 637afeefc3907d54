package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"visapult/pkg/visapult"
	vdpss "visapult/pkg/visapult/dpss"
)

// newFabricTestServer stands a daemon up with a live 2-cluster federation
// attached.
func newFabricTestServer(t *testing.T) (*httptest.Server, *visapult.Fabric, []*vdpss.Cluster) {
	t.Helper()
	var clusters []*vdpss.Cluster
	var cfg visapult.FabricConfig
	for i := 0; i < 2; i++ {
		cl, err := vdpss.StartCluster(vdpss.ClusterConfig{Servers: 2, DisksPerServer: 2})
		if err != nil {
			t.Fatalf("starting cluster %d: %v", i, err)
		}
		t.Cleanup(func() { cl.Close() })
		clusters = append(clusters, cl)
		cfg.Clusters = append(cfg.Clusters, visapult.FabricCluster{
			Name: fmt.Sprintf("site%d", i), Master: cl.MasterAddr,
		})
	}
	cfg.Replication = 2
	cfg.AttemptTimeout = time.Second
	fb, err := visapult.NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	mgr := visapult.NewManager(1)
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer(newServer(mgr).withFabric(fb).handler())
	t.Cleanup(ts.Close)
	return ts, fb, clusters
}

func TestDPSSEndpointsWithoutFabric(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/api/v1/dpss")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/v1/dpss without fabric = %d, want 404", resp.StatusCode)
	}
}

func TestDPSSOverviewProbeAndDrain(t *testing.T) {
	ts, _, clusters := newFabricTestServer(t)

	overview := decode[struct {
		Replication int                 `json:"replication"`
		Clusters    []clusterHealthJSON `json:"clusters"`
	}](t, mustGet(t, ts.URL+"/api/v1/dpss"))
	if overview.Replication != 2 || len(overview.Clusters) != 2 {
		t.Fatalf("overview = %+v", overview)
	}

	// Probe against live masters: everything healthy.
	probed := decode[struct {
		Clusters []clusterHealthJSON `json:"clusters"`
	}](t, postJSON(t, ts.URL+"/api/v1/dpss/probe", nil))
	for _, c := range probed.Clusters {
		if !c.Healthy {
			t.Fatalf("live cluster %s probed unhealthy: %+v", c.Name, c)
		}
	}

	// Kill one cluster; the next probe must mark it down.
	clusters[1].Close()
	probed = decode[struct {
		Clusters []clusterHealthJSON `json:"clusters"`
	}](t, postJSON(t, ts.URL+"/api/v1/dpss/probe", nil))
	var site1 clusterHealthJSON
	for _, c := range probed.Clusters {
		if c.Name == "site1" {
			site1 = c
		}
	}
	if site1.Healthy || site1.Failures == 0 {
		t.Fatalf("killed cluster probed healthy: %+v", site1)
	}

	// Drain and undrain round-trip through the API.
	resp := postJSON(t, ts.URL+"/api/v1/dpss/clusters/site0/drain", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d", resp.StatusCode)
	}
	overview = decode[struct {
		Replication int                 `json:"replication"`
		Clusters    []clusterHealthJSON `json:"clusters"`
	}](t, mustGet(t, ts.URL+"/api/v1/dpss"))
	var drained bool
	for _, c := range overview.Clusters {
		if c.Name == "site0" && c.Drained {
			drained = true
		}
	}
	if !drained {
		t.Fatalf("site0 not drained: %+v", overview.Clusters)
	}
	resp = postJSON(t, ts.URL+"/api/v1/dpss/clusters/site0/undrain", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/v1/dpss/clusters/nonexistent/drain", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown cluster = %d, want 404", resp.StatusCode)
	}
}

// TestDPSSWarmListIsChronological seeds warm-2 and warm-10 and checks the
// listing keeps their start order, which a string sort of the ids breaks.
func TestDPSSWarmListIsChronological(t *testing.T) {
	s := newServer(visapult.NewManager(1)).withFabric(nil)
	t.Cleanup(s.dpss.close)
	t0 := time.Now()
	s.dpss.mu.Lock()
	for i, id := range []string{"warm-2", "warm-10"} {
		s.dpss.jobs[id] = &warmJob{ID: id, Started: t0.Add(time.Duration(i) * time.Second), state: "done"}
	}
	s.dpss.mu.Unlock()
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	list := decode[struct {
		Jobs []warmJobJSON `json:"jobs"`
	}](t, mustGet(t, ts.URL+"/api/v1/dpss/warm"))
	var ids []string
	for _, j := range list.Jobs {
		ids = append(ids, j.ID)
	}
	if len(ids) != 2 || ids[0] != "warm-2" || ids[1] != "warm-10" {
		t.Fatalf("warm jobs listed as %v, want [warm-2 warm-10]", ids)
	}
}

func TestDPSSWarmJobAndDatasets(t *testing.T) {
	ts, _, _ := newFabricTestServer(t)

	started := decode[struct {
		ID string `json:"id"`
	}](t, postJSON(t, ts.URL+"/api/v1/dpss/warm", warmRequest{
		Base: "apiwarm", NX: 16, NY: 8, NZ: 8, Steps: 2,
	}))
	if started.ID == "" {
		t.Fatal("warm job id empty")
	}

	deadline := time.Now().Add(10 * time.Second)
	var job warmJobJSON
	for time.Now().Before(deadline) {
		job = decode[warmJobJSON](t, mustGet(t, ts.URL+"/api/v1/dpss/warm/"+started.ID))
		if job.State != "running" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.State != "done" {
		t.Fatalf("warm job state = %q (error %q), want done", job.State, job.Error)
	}
	if len(job.Files) != 2 {
		t.Fatalf("warm job staged %d files, want 2: %+v", len(job.Files), job.Files)
	}
	for file, byCluster := range job.Files {
		if len(byCluster) != 2 {
			t.Fatalf("file %s staged on %d clusters, want 2", file, len(byCluster))
		}
		for cluster, p := range byCluster {
			if !p.Done || p.Error != "" || p.Staged != p.Total {
				t.Fatalf("file %s on %s incomplete: %+v", file, cluster, p)
			}
		}
	}

	// The warmed datasets appear in the federation catalog with 2 replicas.
	cat := decode[struct {
		Datasets []struct {
			Name     string   `json:"name"`
			Replicas []string `json:"replicas"`
		} `json:"datasets"`
	}](t, mustGet(t, ts.URL+"/api/v1/dpss/datasets"))
	if len(cat.Datasets) != 2 {
		t.Fatalf("catalog has %d datasets, want 2: %+v", len(cat.Datasets), cat)
	}
	for _, d := range cat.Datasets {
		if !strings.HasPrefix(d.Name, "apiwarm.t") || len(d.Replicas) != 2 {
			t.Fatalf("catalog entry %+v", d)
		}
	}

	// Job listing includes the finished job.
	jobs := decode[struct {
		Jobs []warmJobJSON `json:"jobs"`
	}](t, mustGet(t, ts.URL+"/api/v1/dpss/warm"))
	if len(jobs.Jobs) != 1 || jobs.Jobs[0].ID != started.ID {
		t.Fatalf("job list = %+v", jobs)
	}

	// Unknown job 404s.
	resp := mustGet(t, ts.URL+"/api/v1/dpss/warm/warm-999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown warm job = %d, want 404", resp.StatusCode)
	}
}

func TestDPSSHealthStream(t *testing.T) {
	ts, _, clusters := newFabricTestServer(t)

	resp, err := http.Get(ts.URL + "/api/v1/dpss/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", resp.StatusCode)
	}
	// The stream multiplexes health, epoch and rebalance events; this test
	// watches health only.
	events := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				event = strings.TrimPrefix(line, "event: ")
			}
			if strings.HasPrefix(line, "data: ") && event == "health" {
				events <- strings.TrimPrefix(line, "data: ")
			}
		}
		close(events)
	}()

	// First event: the initial all-healthy snapshot.
	select {
	case data := <-events:
		if !strings.Contains(data, `"healthy":true`) {
			t.Fatalf("initial health event %q", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no initial health event")
	}

	// Kill a cluster and trip a probe; the stream must emit the change.
	clusters[0].Close()
	postJSON(t, ts.URL+"/api/v1/dpss/probe", nil).Body.Close()
	select {
	case data := <-events:
		if !strings.Contains(data, `"healthy":false`) {
			t.Fatalf("post-kill health event %q lacks an unhealthy cluster", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no health event after cluster kill")
	}
}

// mustGet is http.Get with the test failing on transport errors.
func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
