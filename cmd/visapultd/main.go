// Command visapultd serves many concurrent Visapult pipelines from one
// process: a visapult.Manager behind an HTTP control plane. Backends create
// named runs with a JSON spec, start and cancel them, poll status, and
// stream live per-frame metrics over server-sent events while a bounded
// worker pool executes the pipelines.
//
// Registering remote workers (visapult-backend processes started with
// -serve-control) turns the daemon into a multi-backend scheduler: runs are
// placed on the least-loaded live worker, stream their metrics back over the
// control connection, and are re-queued onto another worker if theirs dies
// mid-run. With no workers registered every run executes in-process, as
// before.
//
// Usage:
//
//	visapultd -listen 127.0.0.1:9600 -workers 4
//	visapultd -listen 127.0.0.1:9600 -worker 127.0.0.1:9700 -worker 127.0.0.1:9701
//
// The control API lives under /api/v1/ only. Errors on every route share
// one JSON envelope, {"error":{"code","message"}}, with a "fields" list on
// invalid-spec 400s.
//
// Endpoints:
//
//	GET    /healthz                      liveness probe
//	GET    /metrics                      Prometheus text exposition (runs, slots, frame cache, fabric health)
//	GET    /api/v1/runs                  list runs
//	POST   /api/v1/runs                  create a run (JSON spec; "start":true launches it)
//	GET    /api/v1/runs/{name}           run status (includes placement attempts)
//	POST   /api/v1/runs/{name}/start     queue the run on the worker pool
//	POST   /api/v1/runs/{name}/cancel    cancel the run
//	DELETE /api/v1/runs/{name}           remove a finished run
//	GET    /api/v1/runs/{name}/result    summary of a completed run
//	GET    /api/v1/runs/{name}/metrics   per-frame metrics snapshot
//	GET    /api/v1/runs/{name}/stream    live per-frame metrics (SSE; lossy clients get "dropped" events)
//	GET    /api/v1/runs/{name}/viewers   fan-out viewer deliveries (local or remotely placed runs)
//	POST   /api/v1/runs/{name}/viewers   attach a viewer {"id":"wall-3"} — travels the dispatch protocol for remote runs
//	DELETE /api/v1/runs/{name}/viewers/{id}  detach a viewer
//	POST   /api/v1/runs/prune            drop terminal runs {"olderThan":"30m"} (empty = all terminal)
//	GET    /api/v1/workers               list registered workers
//	POST   /api/v1/workers               register a worker {"addr":"host:port","capacity":2}
//	POST   /api/v1/workers/{id}/drain    stop placing runs on the worker
//	DELETE /api/v1/workers/{id}          forget the worker
//	GET    /api/v1/cache                 frame cache hit/miss/eviction counters and residency
//	POST   /api/v1/cache/flush           drop every cached frame (counters survive)
//
// With a DPSS federation attached (-dpss name=master:port, repeatable):
//
//	GET    /api/v1/dpss                          federation overview (replication, cluster health)
//	POST   /api/v1/dpss/probe                    actively probe every master, refresh health
//	GET    /api/v1/dpss/datasets                 federation-wide catalog with replica placement
//	POST   /api/v1/dpss/clusters/{name}/drain    take a cluster out of new placements
//	POST   /api/v1/dpss/clusters/{name}/undrain  return it to service
//	GET    /api/v1/dpss/warm                     list warming jobs
//	POST   /api/v1/dpss/warm                     start a warming job {"base","nx","ny","nz","steps"}
//	GET    /api/v1/dpss/warm/{id}                warming job progress (per file, per cluster)
//	GET    /api/v1/dpss/rebalance                list rebalance jobs
//	POST   /api/v1/dpss/rebalance                start a job {"kind":"rebalance"|"repair"|"drain","cluster":...}
//	GET    /api/v1/dpss/rebalance/{id}           rebalance job progress (per dataset, per target cluster)
//	GET    /api/v1/dpss/stream                   live health + epoch + rebalance events (SSE)
//
// Example:
//
//	curl -X POST localhost:9600/api/v1/runs -d '{
//	  "name": "demo", "start": true,
//	  "source": {"kind": "combustion", "nx": 80, "ny": 32, "nz": 32, "timesteps": 4},
//	  "pes": 4, "mode": "overlapped", "transport": "tcp", "instrument": true
//	}'
//	curl localhost:9600/api/v1/runs/demo/stream
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"visapult/pkg/visapult"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9600", "address to serve the HTTP API on")
	workers := flag.Int("workers", 4, "maximum pipelines executing concurrently in-process")
	var workerAddrs []string
	flag.Func("worker", "control address of a visapult-backend -serve-control worker to register at startup (repeatable)",
		func(addr string) error {
			workerAddrs = append(workerAddrs, addr)
			return nil
		})
	var fabricClusters []visapult.FabricClusterSpec
	flag.Func("dpss", "DPSS federation member as name=master:port (repeatable; enables the /api/v1/dpss endpoints)",
		func(v string) error {
			name, master, ok := strings.Cut(v, "=")
			if !ok || name == "" || master == "" {
				return fmt.Errorf("want name=master:port, got %q", v)
			}
			fabricClusters = append(fabricClusters, visapult.FabricClusterSpec{Name: name, Master: master})
			return nil
		})
	replication := flag.Int("replication", 2, "replicas per dataset across the -dpss federation")
	attemptTimeout := flag.Duration("dpss-attempt-timeout", 2*time.Second, "per-replica read attempt bound before failing over")
	dpssStripes := flag.Int("dpss-stripes", 0, "parallel striped connections per DPSS block server (0 = client default)")
	retain := flag.Duration("retain", 0, "drop terminal runs older than this (0 keeps them until DELETE/prune)")
	frameCacheMB := flag.Int64("frame-cache-mb", 256, "slab-texture frame cache capacity in MiB (0 disables replay caching)")
	renderWorkers := flag.Int("render-workers", 0, "default render-pool goroutines per in-process run (0 = GOMAXPROCS; specs with renderWorkers set win)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables profiling)")
	flag.Parse()

	startPprof(*pprofAddr)
	mgr := visapult.NewManager(*workers)
	if *frameCacheMB > 0 {
		mgr.SetFrameCacheCapacity(*frameCacheMB << 20)
	}
	mgr.SetDefaultRenderWorkers(*renderWorkers)
	// Run GC: with -retain set, a background pruner keeps the run table (and
	// its per-frame metric buffers) bounded for long-lived daemons. The sweep
	// interval tracks the retention window but stays within [10s, 1min] so
	// short windows expire promptly and long ones do not spin.
	if *retain > 0 {
		interval := *retain / 10
		if interval < 10*time.Second {
			interval = 10 * time.Second
		}
		if interval > time.Minute {
			interval = time.Minute
		}
		go func() {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for range ticker.C {
				if n := mgr.Prune(*retain); n > 0 {
					fmt.Printf("visapultd: pruned %d terminal runs older than %v\n", n, *retain)
				}
			}
		}()
	}
	// Register boot workers concurrently, off the startup path: a dead
	// address costs its own 5s probe, not a serial delay of the HTTP API.
	// A worker that is down at boot is not fatal: the operator can register
	// it later through the API.
	for _, addr := range workerAddrs {
		go func(addr string) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			ws, err := mgr.RegisterWorker(ctx, addr, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "visapultd: %v\n", err)
				return
			}
			fmt.Printf("visapultd: registered worker %s at %s (capacity %d)\n", ws.ID, ws.Addr, ws.Capacity)
		}(addr)
	}
	websrv := newServer(mgr)
	if len(fabricClusters) > 0 {
		spec := visapult.FabricSpec{
			Replication:      *replication,
			AttemptTimeoutMs: int(attemptTimeout.Milliseconds()),
			Stripes:          *dpssStripes,
		}
		for _, c := range fabricClusters {
			spec.Clusters = append(spec.Clusters, visapult.FabricClusterSpec{Name: c.Name, Master: c.Master})
		}
		fb, err := spec.Build(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "visapultd: %v\n", err)
			os.Exit(1)
		}
		defer fb.Close()
		websrv.withFabric(fb)
		fmt.Printf("visapultd: federating %d DPSS clusters (replication %d)\n", len(fabricClusters), fb.Replication())
	}
	srv := &http.Server{Addr: *listen, Handler: websrv.handler()}

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("visapultd: serving on %s (%d workers; ctrl-c to stop)\n", *listen, *workers)
		errCh <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case <-stop:
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "visapultd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("visapultd: shutting down")
	// Close the manager first: it cancels every run and closes their metric
	// channels, which is what lets open SSE streams end. With the streams
	// unblocked, Shutdown can actually drain instead of burning its timeout.
	// The fabric admin plane goes down with it: cancelling its root context
	// aborts any warm or rebalance job still migrating data.
	if websrv.dpss != nil {
		websrv.dpss.close()
	}
	mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	fmt.Println("visapultd: stopped")
}
