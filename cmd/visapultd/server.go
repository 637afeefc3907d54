package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"visapult/pkg/visapult"
)

// server exposes a visapult.Manager over HTTP: JSON control endpoints for
// the run lifecycle and the remote-worker pool, plus a live per-frame
// metrics stream (server-sent events) — the run-manager shape a backend
// integrates against.
type server struct {
	mgr *visapult.Manager
	// dpss is the federation admin plane, nil unless the daemon was started
	// with a fabric (-dpss flags).
	dpss *fabricAdmin
}

func newServer(mgr *visapult.Manager) *server { return &server{mgr: mgr} }

// withFabric attaches a DPSS federation to the daemon, enabling the
// /api/v1/dpss endpoints.
func (s *server) withFabric(fb *visapult.Fabric) *server {
	s.dpss = newFabricAdmin(fb)
	return s
}

// handler builds the route table. Every control route lives under the
// versioned /api/v1/ prefix. /healthz and /metrics are operational
// endpoints, not API surface, and stay unversioned.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)

	reg := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" /api/v1"+path, h)
	}
	reg("GET", "/runs", s.handleList)
	reg("POST", "/runs", s.handleCreate)
	reg("POST", "/runs/prune", s.handlePrune)
	reg("GET", "/runs/{name}", s.handleStatus)
	reg("DELETE", "/runs/{name}", s.handleRemove)
	reg("POST", "/runs/{name}/start", s.handleStart)
	reg("POST", "/runs/{name}/cancel", s.handleCancel)
	reg("GET", "/runs/{name}/result", s.handleResult)
	reg("GET", "/runs/{name}/metrics", s.handleMetrics)
	reg("GET", "/runs/{name}/stream", s.handleStream)
	reg("GET", "/runs/{name}/viewers", s.handleViewerList)
	reg("POST", "/runs/{name}/viewers", s.handleViewerAttach)
	reg("DELETE", "/runs/{name}/viewers/{id}", s.handleViewerDetach)
	reg("GET", "/workers", s.handleWorkerList)
	reg("POST", "/workers", s.handleWorkerRegister)
	reg("POST", "/workers/{id}/drain", s.handleWorkerDrain)
	reg("DELETE", "/workers/{id}", s.handleWorkerRemove)
	reg("GET", "/cache", s.handleCacheStats)
	reg("POST", "/cache/flush", s.handleCacheFlush)
	reg("GET", "/dpss", s.handleDPSS)
	reg("POST", "/dpss/probe", s.handleDPSSProbe)
	reg("GET", "/dpss/datasets", s.handleDPSSDatasets)
	reg("POST", "/dpss/clusters/{name}/drain", s.handleDPSSDrain)
	reg("POST", "/dpss/clusters/{name}/undrain", s.handleDPSSUndrain)
	reg("GET", "/dpss/warm", s.handleDPSSWarmList)
	reg("POST", "/dpss/warm", s.handleDPSSWarmStart)
	reg("GET", "/dpss/warm/{id}", s.handleDPSSWarmStatus)
	reg("GET", "/dpss/rebalance", s.handleDPSSRebalanceList)
	reg("POST", "/dpss/rebalance", s.handleDPSSRebalanceStart)
	reg("GET", "/dpss/rebalance/{id}", s.handleDPSSRebalanceStatus)
	reg("GET", "/dpss/stream", s.handleDPSSStream)
	return mux
}

// runSpec is the JSON shape of a run creation request: the serializable
// pipeline spec (shared with the worker dispatch protocol) plus the run's
// name and launch flag. Spec-created runs are scheduled onto registered
// workers when any are live.
type runSpec struct {
	Name string `json:"name"`
	visapult.RunSpec
	// Start launches the run immediately after creation.
	Start bool `json:"start,omitempty"`
}

// statusJSON is the wire shape of a run status.
type statusJSON struct {
	Name       string               `json:"name"`
	State      string               `json:"state"`
	Error      string               `json:"error,omitempty"`
	FramesSent int                  `json:"framesSent"`
	Created    string               `json:"created,omitempty"`
	Started    string               `json:"started,omitempty"`
	Finished   string               `json:"finished,omitempty"`
	Worker     string               `json:"worker,omitempty"`
	Attempts   []attemptJSON        `json:"attempts,omitempty"`
	Viewers    []viewerDeliveryJSON `json:"viewers,omitempty"`
}

// viewerDeliveryJSON is the wire shape of one fan-out viewer's delivery
// record.
type viewerDeliveryJSON struct {
	ID            string `json:"id"`
	Attached      string `json:"attached,omitempty"`
	StartFrame    int    `json:"startFrame"`
	FramesSent    int    `json:"framesSent"`
	FramesDropped int    `json:"framesDropped"`
	QueueDepth    int    `json:"queueDepth"`
	BytesSent     int64  `json:"bytesSent"`
	Detached      bool   `json:"detached,omitempty"`
	Error         string `json:"error,omitempty"`
}

func toViewerDeliveryJSON(d visapult.ViewerDelivery) viewerDeliveryJSON {
	return viewerDeliveryJSON{
		ID:            d.ID,
		Attached:      fmtTime(d.Attached),
		StartFrame:    d.StartFrame,
		FramesSent:    d.FramesSent,
		FramesDropped: d.FramesDropped,
		QueueDepth:    d.QueueDepth,
		BytesSent:     d.BytesSent,
		Detached:      d.Detached,
		Error:         d.Error,
	}
}

func toViewerDeliveriesJSON(ds []visapult.ViewerDelivery) []viewerDeliveryJSON {
	out := make([]viewerDeliveryJSON, len(ds))
	for i, d := range ds {
		out[i] = toViewerDeliveryJSON(d)
	}
	return out
}

// attemptJSON is the wire shape of one placement attempt.
type attemptJSON struct {
	Worker  string `json:"worker"`
	Addr    string `json:"addr,omitempty"`
	Started string `json:"started,omitempty"`
	Ended   string `json:"ended,omitempty"`
	Error   string `json:"error,omitempty"`
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func toStatusJSON(st visapult.RunStatus) statusJSON {
	out := statusJSON{
		Name:       st.Name,
		State:      st.State.String(),
		Error:      st.Error,
		FramesSent: st.FramesSent,
		Created:    fmtTime(st.Created),
		Started:    fmtTime(st.Started),
		Finished:   fmtTime(st.Finished),
		Worker:     st.Worker,
	}
	for _, a := range st.Attempts {
		out.Attempts = append(out.Attempts, attemptJSON{
			Worker:  a.Worker,
			Addr:    a.Addr,
			Started: fmtTime(a.Started),
			Ended:   fmtTime(a.Ended),
			Error:   a.Error,
		})
	}
	out.Viewers = toViewerDeliveriesJSON(st.Viewers)
	return out
}

// workerJSON is the wire shape of a registered worker.
type workerJSON struct {
	ID         string `json:"id"`
	Addr       string `json:"addr"`
	Capacity   int    `json:"capacity"`
	Active     int    `json:"active"`
	State      string `json:"state"`
	Registered string `json:"registered,omitempty"`
	Failures   int    `json:"failures,omitempty"`
	LastError  string `json:"lastError,omitempty"`
}

func toWorkerJSON(ws visapult.WorkerStatus) workerJSON {
	return workerJSON{
		ID:         ws.ID,
		Addr:       ws.Addr,
		Capacity:   ws.Capacity,
		Active:     ws.Active,
		State:      ws.State.String(),
		Registered: fmtTime(ws.Registered),
		Failures:   ws.Failures,
		LastError:  ws.LastError,
	}
}

// metricJSON is the wire shape of one per-frame metric.
type metricJSON struct {
	Frame       int     `json:"frame"`
	PE          int     `json:"pe"`
	LoadMs      float64 `json:"loadMs"`
	RenderMs    float64 `json:"renderMs"`
	SendMs      float64 `json:"sendMs"`
	BytesLoaded int64   `json:"bytesLoaded"`
	BytesSent   int64   `json:"bytesSent"`
	// CacheHit marks a frame served from the slab-texture cache instead of
	// the raycaster.
	CacheHit bool `json:"cacheHit,omitempty"`
	// TilesSkipped counts macrocell ray segments the renderer skipped as
	// empty space; 0 (and omitted) for cache-replayed frames.
	TilesSkipped int `json:"tilesSkipped,omitempty"`
}

func toMetricJSON(fm visapult.FrameMetric) metricJSON {
	return metricJSON{
		Frame:        fm.Frame,
		PE:           fm.PE,
		LoadMs:       float64(fm.Load) / float64(time.Millisecond),
		RenderMs:     float64(fm.Render) / float64(time.Millisecond),
		SendMs:       float64(fm.Send) / float64(time.Millisecond),
		BytesLoaded:  fm.BytesLoaded,
		BytesSent:    fm.BytesSent,
		CacheHit:     fm.CacheHit,
		TilesSkipped: fm.TilesSkipped,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// errorEnvelope is the uniform error shape of every API error response, on
// the versioned and legacy routes alike:
//
//	{"error":{"code":"unknown_run","message":"...","fields":[...]}}
//
// code is a stable machine-readable discriminator; fields appears only on
// invalid_spec responses, one entry per failing RunSpec field.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string                `json:"code"`
	Message string                `json:"message"`
	Fields  []visapult.FieldError `json:"fields,omitempty"`
}

// writeError renders a manager error as the JSON envelope, deriving status
// and code from the error's sentinel.
func writeError(w http.ResponseWriter, err error) {
	status, code := errorCode(err)
	body := errorBody{Code: code, Message: err.Error()}
	var verr *visapult.ValidationError
	if errors.As(err, &verr) {
		body.Fields = verr.Fields
	}
	writeJSON(w, status, errorEnvelope{Error: body})
}

// writeAPIError renders an error whose status and code the handler chose
// itself (malformed request bodies, subsystem-specific not-founds).
func writeAPIError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: err.Error()}})
}

// errorCode maps manager errors onto an HTTP status and a stable error code.
func errorCode(err error) (int, string) {
	switch {
	case errors.Is(err, visapult.ErrUnknownRun):
		return http.StatusNotFound, "unknown_run"
	case errors.Is(err, visapult.ErrUnknownWorker):
		return http.StatusNotFound, "unknown_worker"
	case errors.Is(err, visapult.ErrRunExists):
		return http.StatusConflict, "run_exists"
	case errors.Is(err, visapult.ErrRunNotPending):
		return http.StatusConflict, "not_pending"
	case errors.Is(err, visapult.ErrRunActive):
		return http.StatusConflict, "run_active"
	case errors.Is(err, visapult.ErrWorkerExists):
		return http.StatusConflict, "worker_exists"
	case errors.Is(err, visapult.ErrNoFanout):
		return http.StatusConflict, "no_fanout"
	case errors.Is(err, visapult.ErrNoResult):
		return http.StatusConflict, "no_result"
	case errors.Is(err, visapult.ErrInvalidSpec):
		return http.StatusBadRequest, "invalid_spec"
	case errors.Is(err, visapult.ErrManagerClosed):
		return http.StatusServiceUnavailable, "manager_closed"
	default:
		return http.StatusBadRequest, "bad_request"
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// pruneRequest is the JSON body of POST /api/v1/runs/prune. An empty body (or
// zero duration) prunes every terminal run.
type pruneRequest struct {
	// OlderThan is a Go duration string ("30m", "24h"); terminal runs that
	// finished longer ago than this are dropped.
	OlderThan string `json:"olderThan,omitempty"`
}

func (s *server) handlePrune(w http.ResponseWriter, r *http.Request) {
	var req pruneRequest
	if r.Body != nil {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding prune request: %w", err))
			return
		}
	}
	var olderThan time.Duration
	if req.OlderThan != "" {
		d, err := time.ParseDuration(req.OlderThan)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("parsing olderThan: %w", err))
			return
		}
		olderThan = d
	}
	writeJSON(w, http.StatusOK, map[string]int{"pruned": s.mgr.Prune(olderThan)})
}

// sseWriteTimeout bounds one SSE event write: a subscriber that cannot drain
// an event within it is disconnected, so a stalled client never pins its
// handler goroutine (or the manager subscription feeding it) indefinitely.
const sseWriteTimeout = 10 * time.Second

// sseStream is a server-sent-events response with per-write deadlines.
type sseStream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	flusher http.Flusher
}

// newSSEStream prepares w for event streaming. It reports false (after
// writing the error response) when the writer cannot stream.
func newSSEStream(w http.ResponseWriter) (*sseStream, bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeAPIError(w, http.StatusInternalServerError, "internal", fmt.Errorf("streaming unsupported"))
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	return &sseStream{w: w, rc: http.NewResponseController(w), flusher: flusher}, true
}

// send writes one event under a write deadline and reports whether the
// stream is still usable.
func (s *sseStream) send(event string, data []byte) bool {
	s.rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)) //nolint:errcheck // unsupported writers just stream unbounded
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return false
	}
	s.flusher.Flush()
	return true
}

// sendJSON marshals v and sends it as one event.
func (s *sseStream) sendJSON(event string, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return false
	}
	return s.send(event, data)
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	statuses := s.mgr.List()
	out := make([]statusJSON, len(statuses))
	for i, st := range statuses {
		out[i] = toStatusJSON(st)
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func (s *server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec runSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding run spec: %w", err))
		return
	}
	if spec.Name == "" {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("run name is required"))
		return
	}
	// CreateSpec keeps the serializable spec alongside the run, which is
	// what makes it placeable on registered remote workers.
	if err := s.mgr.CreateSpec(spec.Name, spec.RunSpec); err != nil {
		writeError(w, err)
		return
	}
	if spec.Start {
		if err := s.mgr.Start(spec.Name); err != nil {
			writeError(w, err)
			return
		}
	}
	st, err := s.mgr.Status(spec.Name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, toStatusJSON(st))
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Status(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toStatusJSON(st))
}

func (s *server) handleStart(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.mgr.Start(name); err != nil {
		writeError(w, err)
		return
	}
	st, _ := s.mgr.Status(name)
	writeJSON(w, http.StatusOK, toStatusJSON(st))
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.mgr.Cancel(name); err != nil {
		writeError(w, err)
		return
	}
	st, _ := s.mgr.Status(name)
	writeJSON(w, http.StatusOK, toStatusJSON(st))
}

func (s *server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Remove(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.mgr.Result(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"frames":           res.Backend.Frames,
		"pes":              res.Backend.PEs,
		"mode":             res.Backend.Mode.String(),
		"bytesIn":          res.Backend.BytesIn,
		"bytesOut":         res.Backend.BytesOut,
		"trafficRatio":     res.TrafficRatio(),
		"axisFlips":        res.Backend.AxisFlips,
		"framesCompleted":  res.Viewer.FramesCompleted,
		"payloadsReceived": res.Viewer.PayloadsReceived,
		"elapsedMs":        float64(res.Elapsed) / float64(time.Millisecond),
		"events":           len(res.Events),
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	metrics, err := s.mgr.Metrics(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]metricJSON, len(metrics))
	for i, fm := range metrics {
		out[i] = toMetricJSON(fm)
	}
	writeJSON(w, http.StatusOK, map[string]any{"metrics": out})
}

// viewerAttachRequest is the JSON body of POST /api/v1/runs/{name}/viewers.
type viewerAttachRequest struct {
	// ID names the viewer to attach; it must be unique among the run's
	// currently attached viewers.
	ID string `json:"id"`
}

func (s *server) handleViewerList(w http.ResponseWriter, r *http.Request) {
	vds, err := s.mgr.Viewers(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"viewers": toViewerDeliveriesJSON(vds)})
}

func (s *server) handleViewerAttach(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req viewerAttachRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding viewer attach request: %w", err))
		return
	}
	if req.ID == "" {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("viewer id is required"))
		return
	}
	if err := s.mgr.AttachViewer(name, req.ID); err != nil {
		writeError(w, err)
		return
	}
	vds, _ := s.mgr.Viewers(name)
	writeJSON(w, http.StatusCreated, map[string]any{"viewers": toViewerDeliveriesJSON(vds)})
}

func (s *server) handleViewerDetach(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.DetachViewer(r.PathValue("name"), r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"detached": true})
}

// handleCacheStats serves GET /api/v1/cache: the frame cache's hit, miss and
// eviction counters plus current residency and capacity.
func (s *server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.FrameCacheStats())
}

// handleCacheFlush serves POST /api/v1/cache/flush: drop every cached frame
// (counters and capacity survive), forcing the next replay to re-render.
func (s *server) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	s.mgr.FlushFrameCache()
	writeJSON(w, http.StatusOK, map[string]bool{"flushed": true})
}

// workerRegisterRequest is the JSON body of POST /api/v1/workers.
type workerRegisterRequest struct {
	// Addr is the worker's control address (visapult-backend -serve-control).
	Addr string `json:"addr"`
	// Capacity overrides the worker's advertised slot count; 0 adopts it.
	Capacity int `json:"capacity,omitempty"`
}

func (s *server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	workers := s.mgr.Workers()
	out := make([]workerJSON, len(workers))
	for i, ws := range workers {
		out[i] = toWorkerJSON(ws)
	}
	writeJSON(w, http.StatusOK, map[string]any{"workers": out})
}

func (s *server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req workerRegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding worker registration: %w", err))
		return
	}
	if req.Addr == "" {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("worker addr is required"))
		return
	}
	ws, err := s.mgr.RegisterWorker(r.Context(), req.Addr, req.Capacity)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, toWorkerJSON(ws))
}

func (s *server) handleWorkerDrain(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.DrainWorker(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"draining": true})
}

func (s *server) handleWorkerRemove(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.RemoveWorker(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}

// handleStream serves per-frame metrics as server-sent events: one "metric"
// event per (PE, timestep) as the pipeline produces them, then a final
// "status" event when the run reaches a terminal state. Every event write is
// bounded by sseWriteTimeout (a stalled client is disconnected, not waited
// on), and whenever the subscription's bounded buffer discards frames
// because this client fell behind, a "dropped" event carries the running
// tally — the client knows its view is lossy and can re-sync from
// /api/v1/runs/{name}/metrics.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sub, err := s.mgr.SubscribeMetrics(name)
	if err != nil {
		writeError(w, err)
		return
	}
	defer sub.Cancel()
	ch := sub.C

	stream, ok := newSSEStream(w)
	if !ok {
		return
	}
	send := stream.sendJSON

	// emitDropped surfaces the subscription's drop tally when it grows.
	var lastDropped int64
	emitDropped := func() bool {
		if d := sub.Dropped(); d > lastDropped {
			lastDropped = d
			return send("dropped", map[string]int64{"dropped": d})
		}
		return true
	}

	// Fan-out runs interleave "viewers" events with the metric stream: one
	// whenever the per-viewer delivery snapshot (frames sent/dropped, queue
	// depth, attach/detach) changes — rate-limited, since the counters move
	// with nearly every metric and re-marshalling the full list per frame
	// would dwarf the metric stream itself. The final emission (force) runs
	// unthrottled so the stream always ends with the settled tallies.
	// Single-viewer and remotely placed runs have no fan-out and stream no
	// such events.
	var lastViewers []byte
	var lastViewersAt time.Time
	emitViewers := func(force bool) bool {
		if !force && time.Since(lastViewersAt) < 250*time.Millisecond {
			return true
		}
		vds, err := s.mgr.Viewers(name)
		if err != nil {
			return true
		}
		data, err := json.Marshal(toViewerDeliveriesJSON(vds))
		if err != nil || bytes.Equal(data, lastViewers) {
			return true
		}
		lastViewers = data
		lastViewersAt = time.Now()
		return stream.send("viewers", data)
	}

	// Replay what already happened so late subscribers see the whole run.
	// Frames recorded between Subscribe and the snapshot arrive on both
	// paths. Deduplication is by value, not just (frame, PE) key: a run
	// re-queued onto another worker re-streams its frames with that
	// attempt's own timings, and those must reach the client (latest wins)
	// rather than be mistaken for replay duplicates of the dead attempt.
	sent := make(map[[2]int]metricJSON)
	relay := func(fm visapult.FrameMetric) bool {
		key := [2]int{fm.Frame, fm.PE}
		mj := toMetricJSON(fm)
		if prev, ok := sent[key]; ok && prev == mj {
			return true
		}
		sent[key] = mj
		return send("metric", mj)
	}
	if snapshot, err := s.mgr.Metrics(name); err == nil {
		for _, fm := range snapshot {
			if !relay(fm) {
				return
			}
		}
	}
	if !emitViewers(false) {
		return
	}
	for {
		select {
		case fm, ok := <-ch:
			if !ok { // run finished
				// Backfill anything the bounded subscriber buffer dropped
				// during bursts, so the stream ends with every (frame, PE)
				// of the final snapshot carrying its final values.
				if snapshot, err := s.mgr.Metrics(name); err == nil {
					for _, fm := range snapshot {
						if !relay(fm) {
							return
						}
					}
				}
				if !emitViewers(true) {
					return
				}
				if !emitDropped() {
					return
				}
				if st, err := s.mgr.Status(name); err == nil {
					send("status", toStatusJSON(st))
				}
				return
			}
			if !relay(fm) {
				return
			}
			if !emitViewers(false) {
				return
			}
			if !emitDropped() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
