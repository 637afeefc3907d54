package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"visapult/pkg/visapult"
	vdpss "visapult/pkg/visapult/dpss"
)

// fabricAdmin is the daemon-side administration of a DPSS federation: health
// and catalog views, drain/undrain, and asynchronous cache-warming jobs. It
// is attached to the server when visapultd is started with -dpss flags; the
// /api/v1/dpss endpoints report 404 otherwise.
type fabricAdmin struct {
	fabric *visapult.Fabric
	// ctx is the root lifecycle of the admin plane: daemon shutdown cancels
	// it, which aborts every running warm and rebalance job instead of
	// leaving their migrations running against a closing fabric.
	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	// guarded by mu
	jobs map[string]*warmJob
	// guarded by mu
	nextJob int
	// guarded by mu
	rebals map[string]*rebalJob
	// guarded by mu
	nextRebal int
}

func newFabricAdmin(fb *visapult.Fabric) *fabricAdmin {
	ctx, cancel := context.WithCancel(context.Background())
	return &fabricAdmin{
		fabric: fb,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*warmJob),
		rebals: make(map[string]*rebalJob),
	}
}

// close aborts every running warm and rebalance job: their fabric operations
// return with a context error and the jobs transition to failed.
func (fa *fabricAdmin) close() { fa.cancel() }

// warmJob is one asynchronous warming run.
type warmJob struct {
	ID      string
	Base    string
	Steps   int
	Started time.Time

	mu sync.Mutex
	// state is running | done | failed.
	// guarded by mu
	state string
	err   string // guarded by mu
	// guarded by mu
	finished time.Time
	// guarded by mu
	report *vdpss.WarmReport
	// progress maps file -> cluster -> staged bytes, updated live.
	// guarded by mu
	progress map[string]map[string]warmProgressJSON
}

// warmProgressJSON is the wire shape of one (file, cluster) staging state.
type warmProgressJSON struct {
	Staged int64  `json:"staged"`
	Total  int64  `json:"total"`
	Done   bool   `json:"done,omitempty"`
	Error  string `json:"error,omitempty"`
}

// clusterHealthJSON is the wire shape of one member's health snapshot.
type clusterHealthJSON struct {
	Name      string `json:"name"`
	Master    string `json:"master"`
	Healthy   bool   `json:"healthy"`
	Drained   bool   `json:"drained,omitempty"`
	Failures  int    `json:"failures,omitempty"`
	DownUntil string `json:"downUntil,omitempty"`
	LastError string `json:"lastError,omitempty"`
}

func toClusterHealthJSON(hs []visapult.FabricHealth) []clusterHealthJSON {
	out := make([]clusterHealthJSON, len(hs))
	for i, h := range hs {
		out[i] = clusterHealthJSON{
			Name: h.Name, Master: h.Master,
			Healthy: h.Healthy, Drained: h.Drained,
			Failures: h.Failures, DownUntil: fmtTime(h.DownUntil),
			LastError: h.LastError,
		}
	}
	return out
}

// requireFabric 404s requests against a daemon with no federation attached.
func (s *server) requireFabric(w http.ResponseWriter) *fabricAdmin {
	if s.dpss == nil {
		writeAPIError(w, http.StatusNotFound, "not_found", fmt.Errorf("no DPSS fabric configured (start visapultd with -dpss)"))
		return nil
	}
	return s.dpss
}

// epochJSON is the wire shape of the fabric's placement epoch.
type epochJSON struct {
	Version      int      `json:"version"`
	Eligible     []string `json:"eligible,omitempty"`
	PrevEligible []string `json:"prevEligible,omitempty"`
	Migrating    bool     `json:"migrating,omitempty"`
}

func toEpochJSON(e visapult.FabricEpoch) epochJSON {
	return epochJSON{
		Version: e.Version, Eligible: e.Eligible,
		PrevEligible: e.PrevEligible, Migrating: e.Migrating(),
	}
}

// handleDPSS serves the federation overview: replication factor, members,
// current health, and the placement epoch (operators stamp the epoch into
// RunSpec.Fabric.Epoch so remote workers place identically mid-migration).
func (s *server) handleDPSS(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	out := map[string]any{
		"replication": fa.fabric.Replication(),
		"stripes":     fa.fabric.Stripes(),
		"epoch":       toEpochJSON(fa.fabric.Epoch()),
		"rebalancing": fa.fabric.Rebalancing(),
		"clusters":    toClusterHealthJSON(fa.fabric.Health()),
	}
	// Per-stripe transfer counters, keyed by cluster; present only once a
	// member client has actually moved data.
	if ss := fa.fabric.StripeStats(); len(ss) > 0 {
		out["stripeStats"] = ss
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDPSSProbe actively probes every member master and returns the
// refreshed health.
func (s *server) handleDPSSProbe(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	writeJSON(w, http.StatusOK, map[string]any{
		"clusters": toClusterHealthJSON(fa.fabric.Probe(ctx)),
	})
}

// handleDPSSDatasets serves the federation-wide catalog with per-dataset
// replica placement.
func (s *server) handleDPSSDatasets(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	type datasetJSON struct {
		Name     string   `json:"name"`
		Replicas []string `json:"replicas"`
	}
	var out []datasetJSON
	for _, d := range fa.fabric.Datasets(ctx) {
		out = append(out, datasetJSON{Name: d.Name, Replicas: d.Clusters})
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

// handleDPSSDrain takes a cluster out of new placements; handleDPSSUndrain
// returns it.
func (s *server) handleDPSSDrain(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	if err := fa.fabric.Drain(r.PathValue("name")); err != nil {
		writeAPIError(w, http.StatusNotFound, "not_found", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"draining": true})
}

func (s *server) handleDPSSUndrain(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	if err := fa.fabric.Undrain(r.PathValue("name")); err != nil {
		writeAPIError(w, http.StatusNotFound, "not_found", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"draining": false})
}

// warmRequest is the JSON body of POST /api/v1/dpss/warm: a synthetic
// combustion time-series to generate and stage into every placement replica.
type warmRequest struct {
	Base      string `json:"base"`
	NX        int    `json:"nx"`
	NY        int    `json:"ny"`
	NZ        int    `json:"nz"`
	Steps     int    `json:"steps"`
	Seed      int64  `json:"seed,omitempty"`
	BlockSize int    `json:"blockSize,omitempty"`
	WarmAhead int    `json:"warmAhead,omitempty"`
}

// handleDPSSWarmStart launches an asynchronous warming job and returns its
// id immediately; progress is polled through GET /api/v1/dpss/warm/{id}.
func (s *server) handleDPSSWarmStart(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	var req warmRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding warm request: %w", err))
		return
	}
	if req.Base == "" || req.NX <= 0 || req.NY <= 0 || req.NZ <= 0 || req.Steps <= 0 {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("warm request needs base, nx, ny, nz and steps"))
		return
	}
	fa.mu.Lock()
	fa.nextJob++
	job := &warmJob{
		ID: fmt.Sprintf("warm-%d", fa.nextJob), Base: req.Base, Steps: req.Steps,
		Started: time.Now(), state: "running",
		progress: make(map[string]map[string]warmProgressJSON),
	}
	fa.jobs[job.ID] = job
	fa.mu.Unlock()

	// The job outlives the HTTP request but not the daemon: it derives from
	// the admin plane's root context, so shutdown cancels it.
	ctx, cancel := context.WithCancel(fa.ctx)
	go func() {
		defer cancel()
		cfg := vdpss.WarmConfig{
			BlockSize: req.BlockSize,
			WarmAhead: req.WarmAhead,
			OnProgress: func(p vdpss.WarmProgress) {
				job.mu.Lock()
				byCluster := job.progress[p.File]
				if byCluster == nil {
					byCluster = make(map[string]warmProgressJSON)
					job.progress[p.File] = byCluster
				}
				byCluster[p.Cluster] = warmProgressJSON{Staged: p.Staged, Total: p.Total, Done: p.Done, Error: p.Err}
				job.mu.Unlock()
			},
		}
		report, err := vdpss.WarmCombustion(ctx, fa.fabric,
			req.Base, req.NX, req.NY, req.NZ, req.Steps, req.Seed, cfg)
		job.mu.Lock()
		job.report = report
		job.finished = time.Now()
		if err != nil {
			job.state = "failed"
			job.err = err.Error()
		} else {
			job.state = "done"
		}
		job.mu.Unlock()
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID})
}

// warmJobJSON is the wire shape of one warming job's status.
type warmJobJSON struct {
	ID       string                                 `json:"id"`
	Base     string                                 `json:"base"`
	Steps    int                                    `json:"steps"`
	State    string                                 `json:"state"`
	Error    string                                 `json:"error,omitempty"`
	Started  string                                 `json:"started"`
	Finished string                                 `json:"finished,omitempty"`
	Bytes    int64                                  `json:"bytes,omitempty"`
	RateMBps float64                                `json:"rateMBps,omitempty"`
	Files    map[string]map[string]warmProgressJSON `json:"files,omitempty"`
}

func (j *warmJob) snapshot() warmJobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := warmJobJSON{
		ID: j.ID, Base: j.Base, Steps: j.Steps, State: j.state, Error: j.err,
		Started: fmtTime(j.Started), Finished: fmtTime(j.finished),
		Files: make(map[string]map[string]warmProgressJSON, len(j.progress)),
	}
	for file, byCluster := range j.progress {
		cp := make(map[string]warmProgressJSON, len(byCluster))
		for c, p := range byCluster {
			cp[c] = p
		}
		out.Files[file] = cp
	}
	if j.report != nil {
		out.Bytes = j.report.Bytes
		out.RateMBps = j.report.RateMBps()
	}
	return out
}

func (s *server) handleDPSSWarmList(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	fa.mu.Lock()
	jobs := make([]*warmJob, 0, len(fa.jobs))
	for _, j := range fa.jobs {
		jobs = append(jobs, j)
	}
	fa.mu.Unlock()
	// Chronological, not lexicographic: "warm-10" must not sort before
	// "warm-2" on a long-lived daemon.
	sort.Slice(jobs, func(i, j int) bool {
		if !jobs[i].Started.Equal(jobs[j].Started) {
			return jobs[i].Started.Before(jobs[j].Started)
		}
		return jobs[i].ID < jobs[j].ID
	})
	out := make([]warmJobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *server) handleDPSSWarmStatus(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	fa.mu.Lock()
	job, ok := fa.jobs[r.PathValue("id")]
	fa.mu.Unlock()
	if !ok {
		writeAPIError(w, http.StatusNotFound, "not_found", fmt.Errorf("unknown warm job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.snapshot())
}

// handleDPSSStream serves federation state as server-sent events: a "health"
// event with the full cluster snapshot whenever it changes, an "epoch" event
// whenever the placement epoch moves (advance or seal), and a "rebalance"
// event whenever any rebalance job's progress changes — all polled
// internally, so operators watch failover, recovery and live migrations
// without polling /api/v1/dpss. Event writes carry a per-subscriber deadline: a
// stalled client is disconnected instead of pinning its handler goroutine.
func (s *server) handleDPSSStream(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	stream, ok := newSSEStream(w)
	if !ok {
		return
	}

	// emitChanged marshals v and sends it under the event name when the
	// payload differs from the previous emission; it reports write health.
	lasts := make(map[string][]byte)
	emitChanged := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return true
		}
		if string(data) == string(lasts[event]) {
			return true
		}
		lasts[event] = data
		return stream.send(event, data)
	}
	emit := func() bool {
		if !emitChanged("health", toClusterHealthJSON(fa.fabric.Health())) {
			return false
		}
		if !emitChanged("epoch", toEpochJSON(fa.fabric.Epoch())) {
			return false
		}
		return emitChanged("rebalance", fa.rebalSnapshots())
	}
	if !emit() {
		return
	}
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if !emit() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
