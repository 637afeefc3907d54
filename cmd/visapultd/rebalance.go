package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"visapult/pkg/visapult"
)

// rebalJob is one asynchronous rebalance-engine run (rebalance, repair or
// drain-to-empty) driven through POST /api/v1/dpss/rebalance. Progress is polled
// through GET /api/v1/dpss/rebalance/{id} and streamed as "rebalance" SSE events
// on /api/v1/dpss/stream.
type rebalJob struct {
	ID      string
	Kind    string
	Cluster string
	Started time.Time

	mu sync.Mutex
	// state is running | done | failed.
	// guarded by mu
	state string
	err   string // guarded by mu
	// guarded by mu
	finished time.Time
	// guarded by mu
	report *visapult.FabricRebalanceReport
	// moves maps dataset -> target cluster -> live copy progress.
	// guarded by mu
	moves map[string]map[string]moveProgressJSON
}

// moveProgressJSON is the wire shape of one (dataset, target) move.
type moveProgressJSON struct {
	From   string `json:"from,omitempty"`
	Copied int64  `json:"copied"`
	Total  int64  `json:"total"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
}

// rebalRequest is the JSON body of POST /api/v1/dpss/rebalance.
type rebalRequest struct {
	// Kind selects the trigger: "rebalance" (full epoch migration),
	// "repair" (restore replication factor), or "drain" (drain-to-empty;
	// requires Cluster).
	Kind string `json:"kind"`
	// Cluster names the member to drain for kind "drain".
	Cluster string `json:"cluster,omitempty"`
	// Parallel bounds concurrent dataset migrations (0 = engine default).
	Parallel int `json:"parallel,omitempty"`
}

// handleDPSSRebalanceStart launches an asynchronous rebalance job and returns
// its id immediately.
func (s *server) handleDPSSRebalanceStart(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	var req rebalRequest
	// An empty body selects the default full rebalance, mirroring handlePrune.
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding rebalance request: %w", err))
		return
	}
	kind := strings.ToLower(req.Kind)
	switch kind {
	case "", "rebalance":
		kind = "rebalance"
	case "repair":
	case "drain":
		if req.Cluster == "" {
			writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf(`kind "drain" needs a cluster name`))
			return
		}
	default:
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("unknown rebalance kind %q (want rebalance, repair or drain)", req.Kind))
		return
	}

	fa.mu.Lock()
	fa.nextRebal++
	job := &rebalJob{
		ID: fmt.Sprintf("rebal-%d", fa.nextRebal), Kind: kind, Cluster: req.Cluster,
		Started: time.Now(), state: "running",
		moves: make(map[string]map[string]moveProgressJSON),
	}
	fa.rebals[job.ID] = job
	fa.mu.Unlock()

	// The job outlives the HTTP request but not the daemon: it derives from
	// the admin plane's root context, so shutdown cancels it.
	ctx, cancel := context.WithCancel(fa.ctx)
	go func() {
		defer cancel()
		opts := visapult.FabricRebalanceOptions{
			Parallel: req.Parallel,
			OnMove: func(mv visapult.FabricDatasetMove) {
				job.mu.Lock()
				byTarget := job.moves[mv.Dataset]
				if byTarget == nil {
					byTarget = make(map[string]moveProgressJSON)
					job.moves[mv.Dataset] = byTarget
				}
				byTarget[mv.To] = moveProgressJSON{
					From: mv.From, Copied: mv.Copied, Total: mv.Bytes,
					State: string(mv.State), Error: mv.Error,
				}
				job.mu.Unlock()
			},
		}
		var report *visapult.FabricRebalanceReport
		var err error
		switch kind {
		case "repair":
			report, err = fa.fabric.Repair(ctx, opts)
		case "drain":
			report, err = fa.fabric.DrainToEmpty(ctx, req.Cluster, opts)
		default:
			report, err = fa.fabric.Rebalance(ctx, opts)
		}
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

// rebalJobJSON is the wire shape of one rebalance job's status.
type rebalJobJSON struct {
	ID       string                                 `json:"id"`
	Kind     string                                 `json:"kind"`
	Cluster  string                                 `json:"cluster,omitempty"`
	State    string                                 `json:"state"`
	Error    string                                 `json:"error,omitempty"`
	Started  string                                 `json:"started"`
	Finished string                                 `json:"finished,omitempty"`
	Epoch    int                                    `json:"epoch,omitempty"`
	Datasets int                                    `json:"datasets,omitempty"`
	Removed  int                                    `json:"removed,omitempty"`
	Failed   int                                    `json:"failed,omitempty"`
	Bytes    int64                                  `json:"bytes,omitempty"`
	RateMBps float64                                `json:"rateMBps,omitempty"`
	Moves    map[string]map[string]moveProgressJSON `json:"moves,omitempty"`
}

func (j *rebalJob) snapshot() rebalJobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := rebalJobJSON{
		ID: j.ID, Kind: j.Kind, Cluster: j.Cluster, State: j.state, Error: j.err,
		Started: fmtTime(j.Started), Finished: fmtTime(j.finished),
		Moves: make(map[string]map[string]moveProgressJSON, len(j.moves)),
	}
	for dataset, byTarget := range j.moves {
		cp := make(map[string]moveProgressJSON, len(byTarget))
		for target, p := range byTarget {
			cp[target] = p
		}
		out.Moves[dataset] = cp
	}
	if j.report != nil {
		out.Epoch = j.report.Epoch
		out.Datasets = j.report.Datasets
		out.Removed = j.report.Removed
		out.Failed = j.report.Failed()
		out.Bytes = j.report.Bytes
		out.RateMBps = j.report.RateMBps()
	}
	return out
}

// progress returns (moved, total) move counts for the metrics endpoint.
func (j *rebalJob) progress() (state string, done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, byTarget := range j.moves {
		for _, p := range byTarget {
			total++
			if p.State == "done" {
				done++
			}
		}
	}
	return j.state, done, total
}

func (s *server) handleDPSSRebalanceList(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	out := fa.rebalSnapshots()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// rebalSnapshots returns every rebalance job's status, sorted by id.
func (fa *fabricAdmin) rebalSnapshots() []rebalJobJSON {
	fa.mu.Lock()
	jobs := make([]*rebalJob, 0, len(fa.rebals))
	for _, j := range fa.rebals {
		jobs = append(jobs, j)
	}
	fa.mu.Unlock()
	// Chronological, not lexicographic: "rebal-10" must not sort before
	// "rebal-2" on a long-lived daemon.
	sort.Slice(jobs, func(i, j int) bool {
		if !jobs[i].Started.Equal(jobs[j].Started) {
			return jobs[i].Started.Before(jobs[j].Started)
		}
		return jobs[i].ID < jobs[j].ID
	})
	out := make([]rebalJobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

func (s *server) handleDPSSRebalanceStatus(w http.ResponseWriter, r *http.Request) {
	fa := s.requireFabric(w)
	if fa == nil {
		return
	}
	fa.mu.Lock()
	job, ok := fa.rebals[r.PathValue("id")]
	fa.mu.Unlock()
	if !ok {
		writeAPIError(w, http.StatusNotFound, "not_found", fmt.Errorf("unknown rebalance job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.snapshot())
}
