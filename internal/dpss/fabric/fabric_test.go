package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"visapult/internal/dpss"
)

// startFederation launches n in-process clusters and a fabric over them.
func startFederation(t *testing.T, n, replication int, attempt time.Duration) (*Fabric, []*dpss.Cluster) {
	t.Helper()
	clusters := make([]*dpss.Cluster, n)
	var specs []ClusterSpec
	for i := 0; i < n; i++ {
		cl, err := dpss.StartCluster(dpss.ClusterConfig{Servers: 2, DisksPerServer: 2})
		if err != nil {
			t.Fatalf("starting cluster %d: %v", i, err)
		}
		t.Cleanup(func() { cl.Close() })
		clusters[i] = cl
		specs = append(specs, ClusterSpec{Name: fmt.Sprintf("c%d", i), Master: cl.MasterAddr})
	}
	fb, err := New(Config{
		Clusters: specs, Replication: replication, AttemptTimeout: attempt,
		BackoffBase: 20 * time.Millisecond, BackoffMax: time.Second,
	})
	if err != nil {
		t.Fatalf("building fabric: %v", err)
	}
	t.Cleanup(func() { fb.Close() })
	return fb, clusters
}

func TestLookupDeterministicAndSharded(t *testing.T) {
	specs := []ClusterSpec{
		{Name: "berkeley", Master: "127.0.0.1:1"},
		{Name: "sandia", Master: "127.0.0.1:2"},
		{Name: "anl", Master: "127.0.0.1:3"},
	}
	fb1, err := New(Config{Clusters: specs, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fb1.Close()
	// A second fabric with the members listed in a different order must agree
	// on every placement: that is what lets a remote worker resolve the same
	// federation from a serialized spec.
	fb2, err := New(Config{Clusters: []ClusterSpec{specs[2], specs[0], specs[1]}, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()

	primaries := make(map[string]int)
	for ts := 0; ts < 64; ts++ {
		name := dpss.TimestepDatasetName("combustion", ts)
		o1, o2 := fb1.Lookup(name), fb2.Lookup(name)
		if len(o1) != 3 || len(o2) != 3 {
			t.Fatalf("Lookup(%q) lengths = %d, %d, want 3", name, len(o1), len(o2))
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("Lookup(%q) disagrees across member order: %v vs %v", name, o1, o2)
			}
		}
		primaries[o1[0]]++
	}
	// Timestep-granular sharding: the primaries must spread across the
	// federation, not pile on one cluster.
	if len(primaries) != 3 {
		t.Fatalf("64 timesteps used only %d of 3 clusters as primary: %v", len(primaries), primaries)
	}
}

func TestLoadBytesReplicatesAndReads(t *testing.T) {
	fb, clusters := startFederation(t, 3, 2, 0)
	ctx := context.Background()

	data := make([]byte, 300*1024)
	for i := range data {
		data[i] = byte(i * 7)
	}
	replicas, err := fb.LoadBytes(ctx, "vol.t0000", data, 64*1024)
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	if len(replicas) != 2 {
		t.Fatalf("LoadBytes wrote %d replicas, want 2: %v", len(replicas), replicas)
	}
	// Both replica clusters hold real bytes; the third cluster holds none.
	var holding int
	for _, cl := range clusters {
		if cl.TotalBytesServed() > 0 {
			t.Fatalf("cluster served bytes before any read")
		}
		names := cl.Master.Datasets()
		if len(names) > 0 {
			holding++
		}
	}
	if holding != 2 {
		t.Fatalf("%d clusters hold the dataset, want 2", holding)
	}

	f, err := fb.Open(ctx, "vol.t0000")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	got := make([]byte, len(data))
	if _, err := f.ReadAtContext(ctx, got, 0); err != nil {
		t.Fatalf("ReadAtContext: %v", err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}

	// Re-staging the same dataset is idempotent, not a health event.
	if _, err := fb.LoadBytes(ctx, "vol.t0000", data, 64*1024); err != nil {
		t.Fatalf("re-staging: %v", err)
	}
	for _, h := range fb.Health() {
		if !h.Healthy {
			t.Fatalf("cluster %s unhealthy after idempotent re-stage: %+v", h.Name, h)
		}
	}
}

func TestFailoverToReplicaOnKilledCluster(t *testing.T) {
	fb, clusters := startFederation(t, 2, 2, time.Second)
	ctx := context.Background()

	data := make([]byte, 200*1024)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := fb.LoadBytes(ctx, "kill.t0000", data, 32*1024); err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	f, err := fb.Open(ctx, "kill.t0000")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()

	// Kill the cluster the read path prefers for this dataset.
	primary := fb.Lookup("kill.t0000")[0]
	for i, cl := range clusters {
		if fmt.Sprintf("c%d", i) == primary {
			cl.Close()
		}
	}

	got := make([]byte, len(data))
	if _, err := f.ReadAtContext(ctx, got, 0); err != nil {
		t.Fatalf("ReadAtContext after killing primary: %v", err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d after failover", i, got[i], data[i])
		}
	}
	var sawUnhealthy bool
	for _, h := range fb.Health() {
		if h.Name == primary {
			sawUnhealthy = !h.Healthy && h.Failures > 0
		}
	}
	if !sawUnhealthy {
		t.Fatalf("killed primary %s not marked unhealthy: %+v", primary, fb.Health())
	}
}

// stalledServer accepts block-server connections and swallows requests
// without ever replying — a wedged, not dead, replica.
type stalledServer struct {
	l     net.Listener
	seen  atomic.Int64
	block []byte
}

func newStalledServer(t *testing.T) *stalledServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stalledServer{l: l}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
					s.seen.Add(1)
				}
			}()
		}
	}()
	return s
}

func TestStalledClusterFailsOverWithinAttemptTimeout(t *testing.T) {
	// Cluster c0 is a master whose only block server stalls; c1 is a real
	// cluster. Every block read against c0 wedges until the per-attempt
	// timeout aborts it in flight and the read completes from c1.
	stall := newStalledServer(t)
	master := dpss.NewMaster()
	masterAddr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	master.RegisterServer(stall.l.Addr().String())

	healthy, err := dpss.StartCluster(dpss.ClusterConfig{Servers: 2, DisksPerServer: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })

	fb, err := New(Config{
		Clusters: []ClusterSpec{
			{Name: "stalled", Master: masterAddr},
			{Name: "healthy", Master: healthy.MasterAddr},
		},
		Replication: 2, AttemptTimeout: 150 * time.Millisecond,
		BackoffBase: 20 * time.Millisecond, BackoffMax: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })

	// Stage through the healthy cluster only (the stalled one cannot take
	// writes), then register the dataset on the stalled master so reads
	// believe it holds a copy.
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i % 251)
	}
	client := healthy.NewClient()
	t.Cleanup(func() { client.Close() })
	if _, err := healthy.LoadBytes(client, "wedge.t0000", data, 16*1024); err != nil {
		t.Fatal(err)
	}
	if _, err := master.CreateDataset("wedge.t0000", int64(len(data)), 16*1024); err != nil {
		t.Fatal(err)
	}

	f, err := fb.Open(context.Background(), "wedge.t0000")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()

	start := time.Now()
	got := make([]byte, len(data))
	if _, err := f.ReadAtContext(context.Background(), got, 0); err != nil {
		t.Fatalf("ReadAtContext: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("failover took %v, want well under 2s", elapsed)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d after stalled failover", i, got[i], data[i])
		}
	}
	// If the stalled cluster was this dataset's read primary, it must now be
	// marked unhealthy; either way the read completed from the replica.
	if order := fb.Lookup("wedge.t0000"); order[0] == "stalled" {
		var h ClusterHealth
		for _, ch := range fb.Health() {
			if ch.Name == "stalled" {
				h = ch
			}
		}
		if h.Healthy {
			t.Fatalf("stalled primary still marked healthy: %+v", h)
		}
		if stall.seen.Load() == 0 {
			t.Fatalf("stalled server never saw the attempt")
		}
	}
}

func TestFullyDarkDatasetReturnsDescriptiveError(t *testing.T) {
	fb, clusters := startFederation(t, 2, 2, 200*time.Millisecond)
	ctx := context.Background()

	data := make([]byte, 32*1024)
	if _, err := fb.LoadBytes(ctx, "dark.t0000", data, 16*1024); err != nil {
		t.Fatal(err)
	}
	f, err := fb.Open(ctx, "dark.t0000")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, cl := range clusters {
		cl.Close()
	}

	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAtContext(ctx, make([]byte, len(data)), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAllReplicasFailed) {
			t.Fatalf("error = %v, want ErrAllReplicasFailed", err)
		}
		for _, name := range fb.ClusterNames() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not name cluster %s", err, name)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fully dark dataset read hung instead of failing")
	}

	// Opening a never-staged dataset on a dark federation reports too.
	if _, err := fb.Open(ctx, "never.staged"); !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("Open on dark federation = %v, want ErrAllReplicasFailed", err)
	}
}

func TestDrainExcludesFromPlacementAndProbeRecovers(t *testing.T) {
	fb, _ := startFederation(t, 3, 2, 0)
	ctx := context.Background()

	victim := fb.Lookup("drain.t0000")[0]
	if err := fb.Drain(victim); err != nil {
		t.Fatal(err)
	}
	placement := fb.Placement("drain.t0000")
	for _, c := range placement {
		if c == victim {
			t.Fatalf("drained cluster %s still in placement %v", victim, placement)
		}
	}
	if _, err := fb.LoadBytes(ctx, "drain.t0000", make([]byte, 8*1024), 4*1024); err != nil {
		t.Fatal(err)
	}
	// Reads still resolve (the copies exist on the spill clusters).
	f, err := fb.Open(ctx, "drain.t0000")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fb.Undrain(victim); err != nil {
		t.Fatal(err)
	}
	if err := fb.Drain("nonexistent"); !errors.Is(err, ErrUnknownCluster) {
		t.Fatalf("Drain(nonexistent) = %v, want ErrUnknownCluster", err)
	}

	// Probe restores a cluster whose failure was transient.
	m := fb.byName[victim]
	fb.markFailure(m, errors.New("synthetic"))
	if healthOf(fb.Health(), victim).Healthy {
		t.Fatalf("markFailure did not demote %s", victim)
	}
	fb.Probe(ctx)
	if h := healthOf(fb.Health(), victim); !h.Healthy || h.Failures != 0 {
		t.Fatalf("probe did not recover %s: %+v", victim, h)
	}
}

func healthOf(hs []ClusterHealth, name string) ClusterHealth {
	for _, h := range hs {
		if h.Name == name {
			return h
		}
	}
	return ClusterHealth{}
}

func TestUnknownDatasetAnswerRestoresBackedOffCluster(t *testing.T) {
	fb, _ := startFederation(t, 2, 2, 0)
	m := fb.byName["c0"]
	fb.markFailure(m, errors.New("synthetic outage"))
	if healthOf(fb.Health(), "c0").Healthy {
		t.Fatal("markFailure did not demote c0")
	}
	// Opening a dataset nobody holds still exchanges with every master; the
	// "unknown dataset" answer from c0 is a completed round-trip and must
	// restore it — recovery does not require a read of data it holds.
	if _, err := fb.Open(context.Background(), "nobody.has.this"); !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("Open = %v, want ErrAllReplicasFailed", err)
	}
	if h := healthOf(fb.Health(), "c0"); !h.Healthy || h.Failures != 0 {
		t.Fatalf("answered exchange did not restore c0: %+v", h)
	}
}

// TestReadOrderDemotesDrainedAndBackedOff is the regression contract of the
// read path's health sort: available clusters first, backed-off ones next,
// drained last — with Undrain restoring full preference — and a Drain issued
// mid-read never aborts an already-open File.
func TestReadOrderDemotesDrainedAndBackedOff(t *testing.T) {
	fb, _ := startFederation(t, 3, 3, time.Second)
	ctx := context.Background()

	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i % 199)
	}
	if _, err := fb.LoadBytes(ctx, "order.t0000", data, 16*1024); err != nil {
		t.Fatal(err)
	}
	nominal := fb.Lookup("order.t0000")

	names := func(ms []*member) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.name
		}
		return out
	}

	// Baseline: all healthy, readOrder preserves the placement order.
	got := names(fb.readOrder(nominal))
	for i := range nominal {
		if got[i] != nominal[i] {
			t.Fatalf("healthy readOrder = %v, want placement order %v", got, nominal)
		}
	}

	// Drain the primary and back off the secondary: the order must become
	// [third, backed-off second, drained first] — demoted clusters stay in
	// the list as last resorts, they never vanish.
	if err := fb.Drain(nominal[0]); err != nil {
		t.Fatal(err)
	}
	fb.markFailure(fb.byName[nominal[1]], errors.New("synthetic outage"))
	got = names(fb.readOrder(nominal))
	want := []string{nominal[2], nominal[1], nominal[0]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("demoted readOrder = %v, want %v", got, want)
		}
	}

	// Undrain restores the drained cluster's placement preference (the
	// backed-off one stays demoted until its window expires or it answers).
	if err := fb.Undrain(nominal[0]); err != nil {
		t.Fatal(err)
	}
	got = names(fb.readOrder(nominal))
	want = []string{nominal[0], nominal[2], nominal[1]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-undrain readOrder = %v, want %v", got, want)
		}
	}
	fb.markSuccess(fb.byName[nominal[1]])

	// A Drain landing between two reads of an open File must not abort it:
	// the handle keeps reading (from the drained replica if it is the only
	// holder, per last-resort semantics).
	f, err := fb.Open(ctx, "order.t0000")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 16*1024)
	if _, err := f.ReadAtContext(ctx, buf, 0); err != nil {
		t.Fatalf("pre-drain read: %v", err)
	}
	for _, c := range fb.ClusterNames() {
		if err := fb.Drain(c); err != nil { // drain the whole federation
			t.Fatal(err)
		}
	}
	if _, err := f.ReadAtContext(ctx, buf, 16*1024); err != nil {
		t.Fatalf("mid-read Drain aborted the open File: %v", err)
	}
	for i := range buf {
		if buf[i] != data[16*1024+i] {
			t.Fatalf("byte %d read through drained federation = %d, want %d", i, buf[i], data[16*1024+i])
		}
	}
}

func TestCallerCancellationIsNotFailover(t *testing.T) {
	fb, _ := startFederation(t, 2, 2, 0)
	bg := context.Background()
	data := make([]byte, 64*1024)
	if _, err := fb.LoadBytes(bg, "cancel.t0000", data, 16*1024); err != nil {
		t.Fatal(err)
	}
	f, err := fb.Open(bg, "cancel.t0000")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := f.ReadAtContext(ctx, make([]byte, 16), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read = %v, want context.Canceled", err)
	}
	for _, h := range fb.Health() {
		if !h.Healthy {
			t.Fatalf("caller cancellation blamed cluster %s: %+v", h.Name, h)
		}
	}
}

// TestStageOnCancelAbortsInFlightWrite: cancelling a warm aborts the block
// write already waiting on a stalled server instead of waiting out the
// client's 30 s op timeout, and a cancellation is not held against the
// cluster's health.
func TestStageOnCancelAbortsInFlightWrite(t *testing.T) {
	stall := newStalledServer(t)
	master := dpss.NewMaster()
	masterAddr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	master.RegisterServer(stall.l.Addr().String())
	if _, err := master.CreateDataset("warm.t0000", 64<<10, 16<<10); err != nil {
		t.Fatal(err)
	}
	fb, err := New(Config{Clusters: []ClusterSpec{{Name: "stalled", Master: masterAddr}}, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for stall.seen.Load() == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	err = fb.StageOn(ctx, "stalled", "warm.t0000", make([]byte, 64<<10), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StageOn error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled StageOn took %v, want well inside the %v op timeout", elapsed, dpss.DefaultOpTimeout)
	}
	for _, h := range fb.Health() {
		if !h.Healthy {
			t.Fatalf("cancellation marked the cluster unhealthy: %+v", h)
		}
	}
}
