package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"visapult/pkg/visapult"
)

func newTestServer(t *testing.T, workers int) (*httptest.Server, *visapult.Manager) {
	t.Helper()
	mgr := visapult.NewManager(workers)
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer(newServer(mgr).handler())
	t.Cleanup(ts.Close)
	return ts, mgr
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// smallSpec is a run spec that completes in well under a second.
func smallSpec(name string, start bool) runSpec {
	return runSpec{
		Name: name,
		RunSpec: visapult.RunSpec{
			Source: visapult.SourceSpec{Kind: "combustion", NX: 24, NY: 16, NZ: 16, Timesteps: 2, Seed: 7},
			PEs:    2, Mode: "overlapped", Transport: "local",
		},
		Start: start,
	}
}

func waitState(t *testing.T, url, name, want string) statusJSON {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/api/v1/runs/" + name)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[statusJSON](t, resp)
		if st.State == want {
			return st
		}
		if st.State == "failed" && want != "failed" {
			t.Fatalf("run %s failed: %s", name, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s never reached state %q", name, want)
	return statusJSON{}
}

func TestCreateStartAndComplete(t *testing.T) {
	ts, _ := newTestServer(t, 2)

	resp := postJSON(t, ts.URL+"/api/v1/runs", smallSpec("demo", true))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: got %d", resp.StatusCode)
	}
	st := decode[statusJSON](t, resp)
	if st.Name != "demo" {
		t.Fatalf("created run named %q", st.Name)
	}

	final := waitState(t, ts.URL, "demo", "done")
	if final.FramesSent != 2*2 { // PEs x timesteps
		t.Errorf("framesSent = %d, want 4", final.FramesSent)
	}

	// Result summary.
	resp, err := http.Get(ts.URL + "/api/v1/runs/demo/result")
	if err != nil {
		t.Fatal(err)
	}
	res := decode[map[string]any](t, resp)
	if res["frames"].(float64) != 2 {
		t.Errorf("result frames = %v, want 2", res["frames"])
	}
	if res["trafficRatio"].(float64) <= 1 {
		t.Errorf("traffic ratio %v not > 1", res["trafficRatio"])
	}

	// Metrics snapshot.
	resp, err = http.Get(ts.URL + "/api/v1/runs/demo/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := decode[map[string][]metricJSON](t, resp)
	if len(metrics["metrics"]) != 4 {
		t.Errorf("metrics snapshot has %d entries, want 4", len(metrics["metrics"]))
	}

	// Remove.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/demo", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: got %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/runs/demo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after remove: got %d, want 404", resp.StatusCode)
	}
}

func TestCreateValidation(t *testing.T) {
	ts, _ := newTestServer(t, 1)

	for _, tc := range []struct {
		name string
		spec runSpec
		code int
	}{
		{"missing name", runSpec{RunSpec: visapult.RunSpec{Source: visapult.SourceSpec{Kind: "combustion"}}}, http.StatusBadRequest},
		{"bad source", runSpec{Name: "x", RunSpec: visapult.RunSpec{Source: visapult.SourceSpec{Kind: "noexist"}}}, http.StatusBadRequest},
		{"bad mode", runSpec{Name: "x", RunSpec: visapult.RunSpec{Mode: "warp", Source: visapult.SourceSpec{Kind: "combustion"}}}, http.StatusBadRequest},
		{"bad transport", runSpec{Name: "x", RunSpec: visapult.RunSpec{Transport: "pigeon", Source: visapult.SourceSpec{Kind: "combustion"}}}, http.StatusBadRequest},
	} {
		resp := postJSON(t, ts.URL+"/api/v1/runs", tc.spec)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: got %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}

	// Duplicate names conflict.
	resp := postJSON(t, ts.URL+"/api/v1/runs", smallSpec("dup", false))
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/api/v1/runs", smallSpec("dup", false))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create: got %d, want 409", resp.StatusCode)
	}
}

func TestListAndConcurrentRuns(t *testing.T) {
	ts, _ := newTestServer(t, 4)

	const n = 4
	for i := 0; i < n; i++ {
		resp := postJSON(t, ts.URL+"/api/v1/runs", smallSpec(fmt.Sprintf("run-%d", i), true))
		resp.Body.Close()
	}
	for i := 0; i < n; i++ {
		waitState(t, ts.URL, fmt.Sprintf("run-%d", i), "done")
	}
	resp, err := http.Get(ts.URL + "/api/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]statusJSON](t, resp)
	if len(list["runs"]) != n {
		t.Fatalf("list has %d runs, want %d", len(list["runs"]), n)
	}
	for _, st := range list["runs"] {
		if st.State != "done" {
			t.Errorf("run %s in state %s, want done", st.Name, st.State)
		}
	}
}

func TestCancelQueuedRun(t *testing.T) {
	// One worker, so a second started run waits in the queue where Cancel
	// can catch it.
	ts, _ := newTestServer(t, 1)

	// A paper-scale source keeps the hog busy for many seconds — long enough
	// that both cancels land while it still occupies the only worker.
	slow := runSpec{
		Name: "hog",
		RunSpec: visapult.RunSpec{
			Source: visapult.SourceSpec{Kind: "paper", Scale: 2, Timesteps: 8},
			PEs:    2, Mode: "serial", Transport: "local",
		},
		Start: true,
	}
	resp := postJSON(t, ts.URL+"/api/v1/runs", slow)
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/api/v1/runs", smallSpec("queued", true))
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/api/v1/runs/queued/cancel", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: got %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitState(t, ts.URL, "queued", "canceled")

	// Cancelling the running hog aborts it mid-run through its context.
	resp = postJSON(t, ts.URL+"/api/v1/runs/hog/cancel", nil)
	resp.Body.Close()
	waitState(t, ts.URL, "hog", "canceled")
}

// startHTTPTestWorker stands up a real in-process dispatch worker for the
// HTTP-level scheduler tests.
func startHTTPTestWorker(t *testing.T, capacity int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		visapult.ServeWorker(ctx, ln, visapult.WorkerConfig{Capacity: capacity})
	}()
	t.Cleanup(func() { cancel(); <-done })
	return ln.Addr().String()
}

// TestWorkerEndpoints drives the whole remote path over HTTP: register a
// worker, dispatch a run to it, watch the SSE metrics arrive, and check the
// run status records the placement. Then drain and remove the worker.
func TestWorkerEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	addr := startHTTPTestWorker(t, 2)

	// Registering a bogus address fails the liveness probe.
	resp := postJSON(t, ts.URL+"/api/v1/workers", map[string]any{"addr": "127.0.0.1:1"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("registering unreachable worker: got %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/api/v1/workers", map[string]any{"addr": addr})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register worker: got %d", resp.StatusCode)
	}
	worker := decode[workerJSON](t, resp)
	if worker.ID == "" || worker.State != "live" || worker.Capacity != 2 {
		t.Fatalf("registered worker %+v, want a live worker with capacity 2", worker)
	}

	// Duplicate registration conflicts.
	resp = postJSON(t, ts.URL+"/api/v1/workers", map[string]any{"addr": addr})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate worker registration: got %d, want 409", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/api/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	workers := decode[map[string][]workerJSON](t, resp)
	if len(workers["workers"]) != 1 {
		t.Fatalf("worker list %+v, want 1 entry", workers["workers"])
	}

	// A run created over HTTP is dispatched to the worker; its metrics come
	// back over the control connection and feed the same SSE stream local
	// runs use.
	resp = postJSON(t, ts.URL+"/api/v1/runs", smallSpec("remote", true))
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/api/v1/runs/remote/stream")
	if err != nil {
		t.Fatal(err)
	}
	var metricEvents, statusEvents int
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		switch line := scanner.Text(); {
		case strings.HasPrefix(line, "event: metric"):
			metricEvents++
		case strings.HasPrefix(line, "event: status"):
			statusEvents++
		}
	}
	resp.Body.Close()
	if metricEvents != 4 { // 2 PEs x 2 timesteps, streamed from the worker
		t.Errorf("remote run streamed %d metric events, want 4", metricEvents)
	}
	if statusEvents != 1 {
		t.Errorf("remote run streamed %d status events, want 1", statusEvents)
	}

	st := waitState(t, ts.URL, "remote", "done")
	if st.Worker != worker.ID {
		t.Errorf("run executed on %q, want worker %s", st.Worker, worker.ID)
	}
	if len(st.Attempts) != 1 || st.Attempts[0].Worker != worker.ID || st.Attempts[0].Addr != addr {
		t.Errorf("attempts %+v, want one placement on %s@%s", st.Attempts, worker.ID, addr)
	}
	if st.FramesSent != 4 {
		t.Errorf("framesSent %d, want 4", st.FramesSent)
	}

	// Drain, then remove.
	resp = postJSON(t, ts.URL+"/api/v1/workers/"+worker.ID+"/drain", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: got %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	workers = decode[map[string][]workerJSON](t, resp)
	if got := workers["workers"][0].State; got != "draining" {
		t.Errorf("worker state %q after drain, want draining", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/workers/"+worker.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove worker: got %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/v1/workers/"+worker.ID+"/drain", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("draining removed worker: got %d, want 404", resp.StatusCode)
	}
}

func TestMetricsStream(t *testing.T) {
	ts, _ := newTestServer(t, 2)

	resp := postJSON(t, ts.URL+"/api/v1/runs", smallSpec("streamed", true))
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/api/v1/runs/streamed/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	var metricEvents, statusEvents int
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: metric"):
			metricEvents++
		case strings.HasPrefix(line, "event: status"):
			statusEvents++
		}
	}
	if metricEvents != 4 { // 2 PEs x 2 timesteps, deduplicated
		t.Errorf("stream carried %d metric events, want 4", metricEvents)
	}
	if statusEvents != 1 {
		t.Errorf("stream carried %d status events, want 1", statusEvents)
	}
}

// fanoutSpec is a fan-out run spec: one back end multicasting to n viewers.
func fanoutSpec(name string, viewers int, start bool) runSpec {
	spec := smallSpec(name, start)
	spec.Viewers = viewers
	return spec
}

// TestViewerEndpoints drives the fan-out control surface over HTTP: a run
// created with viewers, listed mid-run, one attached and one detached
// dynamically, and the final status carrying every delivery record.
func TestViewerEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, 2)

	// Viewer operations on a single-viewer run conflict.
	resp := postJSON(t, ts.URL+"/api/v1/runs", smallSpec("plain", true))
	resp.Body.Close()
	waitState(t, ts.URL, "plain", "done")
	resp, err := http.Get(ts.URL + "/api/v1/runs/plain/viewers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("viewer list on single-viewer run: got %d, want 409", resp.StatusCode)
	}

	// A longer fan-out run leaves room to attach and detach mid-flight.
	spec := fanoutSpec("fan", 2, true)
	spec.Source = visapult.SourceSpec{Kind: "paper", Scale: 4, Timesteps: 6}
	resp = postJSON(t, ts.URL+"/api/v1/runs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create fan-out run: got %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Wait for the fan-out to come live, then list its viewers.
	deadline := time.Now().Add(15 * time.Second)
	var viewers map[string][]viewerDeliveryJSON
	for {
		resp, err = http.Get(ts.URL + "/api/v1/runs/fan/viewers")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			viewers = decode[map[string][]viewerDeliveryJSON](t, resp)
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("fan-out never came live")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(viewers["viewers"]) != 2 {
		t.Fatalf("initial viewer list %+v, want 2 viewers", viewers["viewers"])
	}

	// Dynamic attach; duplicate ids conflict; missing id is a 400.
	resp = postJSON(t, ts.URL+"/api/v1/runs/fan/viewers", map[string]string{"id": "wall"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("attach: got %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/api/v1/runs/fan/viewers", map[string]string{"id": "wall"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate attach: got %d, want conflict", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/v1/runs/fan/viewers", map[string]string{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("attach without id: got %d, want 400", resp.StatusCode)
	}

	// Dynamic detach.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/fan/viewers/wall", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detach: got %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/fan/viewers/ghost", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("detaching unknown viewer succeeded")
	}

	final := waitState(t, ts.URL, "fan", "done")
	if len(final.Viewers) != 3 {
		t.Fatalf("final status viewers %+v, want 3 records", final.Viewers)
	}
	byID := map[string]viewerDeliveryJSON{}
	for _, d := range final.Viewers {
		byID[d.ID] = d
	}
	if d := byID["viewer-0"]; d.FramesSent == 0 {
		t.Errorf("viewer-0 delivered nothing: %+v", d)
	}
	if d := byID["wall"]; !d.Detached {
		t.Errorf("wall not marked detached: %+v", d)
	}
}

// TestStreamWithMultipleViewers is the SSE regression test for fan-out runs:
// per-viewer metrics are distinguishable in the stream, and the metric
// deduplication of the replay path still holds alongside them.
func TestStreamWithMultipleViewers(t *testing.T) {
	ts, _ := newTestServer(t, 2)

	resp := postJSON(t, ts.URL+"/api/v1/runs", fanoutSpec("fanstream", 3, true))
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/api/v1/runs/fanstream/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var metricEvents, statusEvents int
	var viewerPayloads [][]viewerDeliveryJSON
	var expectData string
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: metric"):
			metricEvents++
		case strings.HasPrefix(line, "event: status"):
			statusEvents++
		case strings.HasPrefix(line, "event: viewers"):
			expectData = "viewers"
		case strings.HasPrefix(line, "data: ") && expectData == "viewers":
			expectData = ""
			var vds []viewerDeliveryJSON
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &vds); err != nil {
				t.Fatalf("undecodable viewers event %q: %v", line, err)
			}
			viewerPayloads = append(viewerPayloads, vds)
		}
	}

	// Dedup from PR 2 still holds: exactly one metric event per (frame, PE).
	if metricEvents != 4 { // 2 PEs x 2 timesteps
		t.Errorf("stream carried %d metric events, want 4", metricEvents)
	}
	if statusEvents != 1 {
		t.Errorf("stream carried %d status events, want 1", statusEvents)
	}
	if len(viewerPayloads) == 0 {
		t.Fatal("stream carried no viewers events")
	}
	last := viewerPayloads[len(viewerPayloads)-1]
	if len(last) != 3 {
		t.Fatalf("final viewers event has %d entries, want 3: %+v", len(last), last)
	}
	ids := map[string]bool{}
	for _, d := range last {
		ids[d.ID] = true
		if d.FramesSent == 0 {
			t.Errorf("viewer %s delivered nothing by the end of the stream: %+v", d.ID, d)
		}
	}
	if len(ids) != 3 {
		t.Errorf("viewer ids not distinguishable: %v", ids)
	}

	// The terminal status event carries the same per-viewer records (checked
	// via the status endpoint, which shares the JSON shape).
	final := waitState(t, ts.URL, "fanstream", "done")
	if len(final.Viewers) != 3 {
		t.Errorf("final status carries %d viewers, want 3", len(final.Viewers))
	}
}
