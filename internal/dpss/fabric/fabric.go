// Package fabric federates several DPSS clusters into one logical data
// cache — the paper's Combustion Corridor topology, where terascale datasets
// were staged from HPSS into multiple geographically distinct DPSS caches
// (Berkeley, Sandia, ANL) and the back end read from whichever cache was
// close and healthy.
//
// A Fabric manages N named clusters (each one master plus its block servers,
// reached through the ordinary dpss.Client). Datasets are placed with
// rendezvous (highest-random-weight) hashing of the dataset name over the
// cluster names, so every process that knows the member list — the staging
// pipeline, a local back end, a remote worker resolving the same serialized
// federation config — computes the same placement without any coordination.
// Time-varying datasets are sharded at timestep granularity: each
// dpss.TimestepDatasetName dataset hashes independently, spreading a
// time-series across the federation.
//
// Writes go to the first R writable clusters in rendezvous order; reads walk
// the same order, healthy clusters first, failing over transparently when a
// replica is dark or wedged. A failed (or per-attempt-timeout aborted) read
// marks its cluster unhealthy with exponential backoff; a later successful
// exchange — a read that got through, or an explicit Probe — restores it.
//
// Placement is versioned with epochs: each epoch names the member subset
// eligible for new placements, and advancing the epoch (the first step of a
// rebalance, drain-to-empty, or repair after an outage) re-hashes every
// dataset over the new eligible set. While a migration is in flight — the
// window between AdvanceEpoch and SealEpoch — reads consult the union of the
// current and the previous epoch's placements, so a run that opened a dataset
// under the old epoch never loses a replica it was using. The rebalance
// engine in rebalance.go moves the data; this file keeps the bookkeeping.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"visapult/internal/dpss"
)

// Fabric error conditions.
var (
	// ErrNoClusters: the fabric was built with no members.
	ErrNoClusters = errors.New("fabric: no clusters configured")
	// ErrUnknownCluster: a named cluster is not a member of the fabric.
	ErrUnknownCluster = errors.New("fabric: unknown cluster")
	// ErrAllReplicasFailed: every replica of a dataset failed a read or open;
	// the wrapped message lists the per-cluster errors.
	ErrAllReplicasFailed = errors.New("fabric: all replicas failed")
)

// ClusterSpec names one member cluster and its master address.
type ClusterSpec struct {
	// Name is the stable federation-wide identity the placement hash uses
	// ("berkeley", "sandia", ...). Renaming a cluster moves data.
	Name string
	// Master is the cluster's master address (host:port).
	Master string
}

// Config sizes a Fabric.
type Config struct {
	// Clusters are the member clusters. At least one is required.
	Clusters []ClusterSpec
	// Replication is the number of clusters each dataset is written to
	// (default 2, capped at the member count).
	Replication int
	// AttemptTimeout bounds one read attempt against one replica; past it the
	// attempt is aborted (through the context-aware client read), the cluster
	// is marked unhealthy, and the read fails over to the next replica. Zero
	// disables the bound: an attempt then fails only on an I/O error or the
	// caller's own context.
	AttemptTimeout time.Duration
	// BackoffBase and BackoffMax shape the unhealthy-cluster backoff window:
	// failure n keeps the cluster demoted for min(BackoffBase << (n-1),
	// BackoffMax). Defaults: 250ms base, 15s max.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Stripes is how many parallel connections each member client keeps per
	// block server (the paper's striped-socket transfers). Zero keeps the
	// dpss client's default; ClientOptions can still override per cluster.
	Stripes int
	// ClientOptions, when non-nil, supplies extra dpss.ClientOptions for the
	// named cluster's client (shapers, compression, instrumentation).
	ClientOptions func(cluster string) []dpss.ClientOption
	// Epoch, when non-nil, seeds the fabric's placement epoch instead of the
	// default (version 0, every member eligible). A remote worker resolving a
	// serialized federation passes the scheduler's epoch state here so both
	// sides compute identical placements mid-migration.
	Epoch *EpochState
}

// EpochState is the serializable snapshot of the fabric's placement epochs:
// everything another process needs to compute the same placements, including
// the previous epoch a migration is still draining from.
type EpochState struct {
	// Version counts epoch advances; 0 is the birth epoch.
	Version int
	// Eligible is the member subset new placements hash over, in
	// configuration order. Empty means every member.
	Eligible []string
	// PrevEligible is the previous epoch's eligible set, non-empty only while
	// a migration is in flight (between AdvanceEpoch and SealEpoch). Reads
	// consult the union of both epochs' placements during that window.
	PrevEligible []string
}

// Migrating reports whether the state describes an in-flight migration.
func (e EpochState) Migrating() bool { return len(e.PrevEligible) > 0 }

// member is one cluster plus its client and health record.
type member struct {
	name   string
	master string

	mu sync.Mutex
	// guarded by mu
	client *dpss.Client
	// guarded by mu
	healthy bool
	// failures counts consecutive failures; reset by any success.
	// guarded by mu
	failures int
	// guarded by mu
	downUntil time.Time
	// guarded by mu
	lastErr string
	// guarded by mu
	drained bool
}

// Fabric is a federation of DPSS clusters behind one placement and failover
// layer. All methods are safe for concurrent use.
type Fabric struct {
	cfg     Config
	members []*member
	byName  map[string]*member

	mu sync.Mutex
	// guarded by mu
	closed bool
	// epochVersion, eligible and prevEligible are the placement epoch
	// bookkeeping (see EpochState). eligible is never empty; prevEligible is
	// nil outside a migration window.
	epochVersion int      // guarded by mu
	eligible     []string // guarded by mu
	prevEligible []string // guarded by mu
	// rebalancing serializes the rebalance engine: one migration at a time.
	// guarded by mu
	rebalancing bool
}

// New validates cfg and builds a fabric. No connection is made until first
// use, so a fabric over dark clusters constructs fine and reports them
// unhealthy when touched.
func New(cfg Config) (*Fabric, error) {
	if len(cfg.Clusters) == 0 {
		return nil, ErrNoClusters
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Clusters) {
		cfg.Replication = len(cfg.Clusters)
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 250 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 15 * time.Second
	}
	f := &Fabric{cfg: cfg, byName: make(map[string]*member)}
	for _, cs := range cfg.Clusters {
		if cs.Name == "" || cs.Master == "" {
			return nil, fmt.Errorf("fabric: cluster needs both a name and a master address, got %+v", cs)
		}
		if _, dup := f.byName[cs.Name]; dup {
			return nil, fmt.Errorf("fabric: duplicate cluster name %q", cs.Name)
		}
		m := &member{name: cs.Name, master: cs.Master, healthy: true}
		f.members = append(f.members, m)
		f.byName[cs.Name] = m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.eligible = f.memberNames()
	if cfg.Epoch != nil {
		cur, err := f.validEligible(cfg.Epoch.Eligible)
		if err != nil {
			return nil, err
		}
		prev, err := f.validEligible(cfg.Epoch.PrevEligible)
		if err != nil {
			return nil, err
		}
		f.epochVersion = cfg.Epoch.Version
		if len(cur) > 0 {
			f.eligible = cur
		}
		if cfg.Epoch.Migrating() {
			f.prevEligible = prev
		}
	}
	return f, nil
}

// memberNames returns every member name in configuration order.
func (f *Fabric) memberNames() []string {
	names := make([]string, len(f.members))
	for i, m := range f.members {
		names[i] = m.name
	}
	return names
}

// validEligible checks that every name in the list is a member and returns a
// copy in configuration order (placement hashes are order-independent, but a
// canonical order keeps snapshots comparable).
func (f *Fabric) validEligible(names []string) ([]string, error) {
	if len(names) == 0 {
		return nil, nil
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := f.byName[n]; !ok {
			return nil, fmt.Errorf("%w: %q in epoch eligible set", ErrUnknownCluster, n)
		}
		set[n] = true
	}
	out := make([]string, 0, len(set))
	for _, m := range f.members {
		if set[m.name] {
			out = append(out, m.name)
		}
	}
	return out, nil
}

// Replication returns the effective replication factor.
func (f *Fabric) Replication() int { return f.cfg.Replication }

// ClusterNames returns the member names in configuration order.
func (f *Fabric) ClusterNames() []string { return f.memberNames() }

// clientFor lazily builds the named member's client.
func (m *member) clientFor(cfg Config) *dpss.Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.client == nil {
		var opts []dpss.ClientOption
		if cfg.AttemptTimeout > 0 {
			// Align the client's own per-exchange bound with the fabric's
			// attempt bound, so even the ctx-less master exchanges (Stat,
			// Remove's catalog drop) fail over within AttemptTimeout.
			opts = append(opts, dpss.WithClientTimeout(cfg.AttemptTimeout))
		}
		if cfg.Stripes > 0 {
			opts = append(opts, dpss.WithStripes(cfg.Stripes))
		}
		if cfg.ClientOptions != nil {
			opts = append(opts, cfg.ClientOptions(m.name)...)
		}
		m.client = dpss.NewClient(m.master, opts...)
	}
	return m.client
}

// ---------------------------------------------------------------------------
// Placement.

// rendezvousScore is the highest-random-weight score of (dataset, cluster).
func rendezvousScore(dataset, cluster string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(dataset))
	h.Write([]byte{0})
	h.Write([]byte(cluster))
	return h.Sum64()
}

// rendezvousOrder sorts the given cluster names by their rendezvous score for
// the dataset, highest first. The order depends only on the dataset name and
// the cluster names — every process hashing the same set computes the same
// list, which is what lets placement survive serialization to remote workers.
func rendezvousOrder(dataset string, names []string) []string {
	type scored struct {
		name  string
		score uint64
	}
	ss := make([]scored, len(names))
	for i, n := range names {
		ss[i] = scored{n, rendezvousScore(dataset, n)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].name < ss[j].name
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name
	}
	return out
}

// Lookup returns every member cluster in the dataset's rendezvous order: the
// spill order reads ultimately fall back to. Placement-relevant subsets (the
// current epoch's eligible clusters) come first through readSet/Placement;
// Lookup itself is epoch-independent and covers the whole federation.
func (f *Fabric) Lookup(dataset string) []string {
	return rendezvousOrder(dataset, f.memberNames())
}

// Epoch returns the current placement epoch state.
func (f *Fabric) Epoch() EpochState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return EpochState{
		Version:      f.epochVersion,
		Eligible:     append([]string(nil), f.eligible...),
		PrevEligible: append([]string(nil), f.prevEligible...),
	}
}

// AdvanceEpoch opens a new placement epoch over the given eligible member
// subset (nil or empty selects every member). The superseded epoch is kept as
// the previous epoch until SealEpoch, so in-flight reads keep consulting the
// placements they opened under. It returns the new state.
func (f *Fabric) AdvanceEpoch(eligible []string) (EpochState, error) {
	cur, err := f.validEligible(eligible)
	if err != nil {
		return EpochState{}, err
	}
	if len(cur) == 0 {
		cur = f.memberNames()
	}
	f.mu.Lock()
	f.prevEligible = f.eligible
	f.eligible = cur
	f.epochVersion++
	f.mu.Unlock()
	return f.Epoch(), nil
}

// SealEpoch ends the migration window: the previous epoch's placements stop
// being consulted. The rebalance engine calls it once every dataset has been
// re-replicated onto its current-epoch placement.
func (f *Fabric) SealEpoch() {
	f.mu.Lock()
	f.prevEligible = nil
	f.mu.Unlock()
}

// epochSets returns the current and (possibly nil) previous eligible sets.
func (f *Fabric) epochSets() (cur, prev []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eligible, f.prevEligible
}

// placementOver returns the dataset's placement over one eligible set: the
// first Replication clusters in the set's rendezvous order that are neither
// drained nor inside their failure backoff. When an outage inside the epoch
// leaves fewer than R of them available, the placement spills to available
// members *outside* the eligible set (federation-wide rendezvous order) — an
// epoch narrowed for a drain must not strand new data below R while healthy
// members exist elsewhere — and only then falls back to the nominal head of
// the eligible order rather than refusing to place.
func (f *Fabric) placementOver(dataset string, eligible []string) []string {
	now := time.Now()
	order := rendezvousOrder(dataset, eligible)
	r := f.cfg.Replication
	if r > len(f.members) {
		r = len(f.members)
	}
	out := make([]string, 0, r)
	for _, name := range order {
		if len(out) == r {
			break
		}
		if f.byName[name].available(now) {
			out = append(out, name)
		}
	}
	if len(out) < r { // spill beyond the epoch to healthy members
		for _, name := range f.Lookup(dataset) {
			if len(out) == r {
				break
			}
			if !contains(order, name) && f.byName[name].available(now) {
				out = append(out, name)
			}
		}
	}
	for _, name := range order { // not enough live clusters anywhere: fill nominally
		if len(out) == r {
			break
		}
		if !contains(out, name) {
			out = append(out, name)
		}
	}
	return out
}

// Placement returns the clusters a new dataset of this name is written to
// right now: the placement over the current epoch's eligible members. Writes
// always land on the new epoch — that is what drains data off members the
// epoch excluded.
func (f *Fabric) Placement(dataset string) []string {
	cur, _ := f.epochSets()
	return f.placementOver(dataset, cur)
}

// readSet returns every member in the dataset's read-priority order: the
// current epoch's placement first, then — during a migration — the previous
// epoch's placement (the replicas an in-flight run may still be using), then
// the rest of the federation as spill. readOrder re-sorts the result by
// health; this function fixes the placement-priority backbone.
func (f *Fabric) readSet(dataset string) []string {
	cur, prev := f.epochSets()
	out := f.placementOver(dataset, cur)
	if prev != nil {
		for _, name := range f.placementOver(dataset, prev) {
			if !contains(out, name) {
				out = append(out, name)
			}
		}
	}
	for _, name := range f.Lookup(dataset) {
		if !contains(out, name) {
			out = append(out, name)
		}
	}
	return out
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// available reports whether the member should take new work at t: not
// drained and not inside a failure backoff window.
func (m *member) available(t time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.drained && (m.healthy || t.After(m.downUntil))
}

// ---------------------------------------------------------------------------
// Health.

// ClusterHealth is a point-in-time snapshot of one member's health record.
type ClusterHealth struct {
	Name    string
	Master  string
	Healthy bool
	Drained bool
	// Failures counts consecutive failed exchanges; zero when healthy.
	Failures int
	// DownUntil is when the failure backoff expires and the cluster becomes
	// eligible for reads and placement again (its next exchange doubles as
	// the recovery probe). Zero when healthy.
	DownUntil time.Time
	LastError string
}

// Health returns a snapshot of every member, in configuration order.
func (f *Fabric) Health() []ClusterHealth {
	out := make([]ClusterHealth, len(f.members))
	for i, m := range f.members {
		m.mu.Lock()
		out[i] = ClusterHealth{
			Name: m.name, Master: m.master,
			Healthy: m.healthy, Drained: m.drained,
			Failures: m.failures, DownUntil: m.downUntil, LastError: m.lastErr,
		}
		m.mu.Unlock()
	}
	return out
}

// markFailure records a failed exchange with the member: consecutive failures
// back the cluster off exponentially, bounded by BackoffMax.
func (f *Fabric) markFailure(m *member, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failures++
	backoff := f.cfg.BackoffBase << (m.failures - 1)
	if backoff > f.cfg.BackoffMax || backoff <= 0 {
		backoff = f.cfg.BackoffMax
	}
	m.healthy = false
	m.downUntil = time.Now().Add(backoff)
	if err != nil {
		m.lastErr = err.Error()
	}
}

// markSuccess records a successful exchange, restoring full health.
func (f *Fabric) markSuccess(m *member) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.healthy = true
	m.failures = 0
	m.downUntil = time.Time{}
	m.lastErr = ""
}

// Drain administratively removes a cluster from new placements and demotes
// it to last resort for reads, without touching the data it already holds —
// the first step of decommissioning or maintenance.
func (f *Fabric) Drain(cluster string) error {
	m, ok := f.byName[cluster]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCluster, cluster)
	}
	m.mu.Lock()
	m.drained = true
	m.mu.Unlock()
	return nil
}

// Undrain returns a drained cluster to service.
func (f *Fabric) Undrain(cluster string) error {
	m, ok := f.byName[cluster]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCluster, cluster)
	}
	m.mu.Lock()
	m.drained = false
	m.mu.Unlock()
	return nil
}

// Probe checks every member's master with a catalog request and updates the
// health records: any response proves the master up, a connection failure or
// a request outliving ctx marks it down (the caller's own cancellation,
// unlike its deadline, blames nobody). It returns the refreshed snapshot.
func (f *Fabric) Probe(ctx context.Context) []ClusterHealth {
	var wg sync.WaitGroup
	for _, m := range f.members {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			if _, err := f.listOn(ctx, m); err != nil {
				if !errors.Is(err, context.Canceled) {
					f.markFailure(m, err)
					m.resetClient()
				}
				return
			}
			f.markSuccess(m)
		}(m)
	}
	wg.Wait()
	return f.Health()
}

// resetClient discards the member's client so the next exchange re-dials;
// used after connection-level failures, whose poisoned sockets would
// otherwise fail every later call.
func (m *member) resetClient() {
	m.mu.Lock()
	c := m.client
	m.client = nil
	m.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// openOn opens a dataset on one member, bounded by ctx and the fabric's
// AttemptTimeout. The master protocol itself has no cancellation, so a
// wedged master (accepting socket, frozen process) would otherwise pin the
// failover loop in a deadline-free dial or read; here the bound tears the
// member's client down, which fails the blocked exchange immediately.
func (f *Fabric) openOn(ctx context.Context, m *member, name string) (*dpss.File, error) {
	client := m.clientFor(f.cfg)
	if f.cfg.AttemptTimeout <= 0 && ctx.Done() == nil {
		return client.Open(name)
	}
	actx := ctx
	cancel := func() {}
	if f.cfg.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, f.cfg.AttemptTimeout)
	}
	defer cancel()
	type result struct {
		df  *dpss.File
		err error
	}
	ch := make(chan result, 1)
	go func() {
		df, err := client.Open(name)
		ch <- result{df, err}
	}()
	select {
	case r := <-ch:
		return r.df, r.err
	case <-actx.Done():
		m.resetClient() // unblocks the exchange; the goroutine then finishes
		<-ch
		return nil, fmt.Errorf("fabric: opening %q on %s: %w", name, m.name, actx.Err())
	}
}

// createOn is the dataset-create request with the same bound as openOn.
func (f *Fabric) createOn(ctx context.Context, m *member, name string, size int64, blockSize int) (dpss.DatasetInfo, error) {
	client := m.clientFor(f.cfg)
	type result struct {
		info dpss.DatasetInfo
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		info, err := client.Create(name, size, blockSize)
		ch <- result{info, err}
	}()
	actx := ctx
	cancel := func() {}
	if f.cfg.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, f.cfg.AttemptTimeout)
	}
	defer cancel()
	select {
	case r := <-ch:
		return r.info, r.err
	case <-actx.Done():
		m.resetClient()
		<-ch
		return dpss.DatasetInfo{}, actx.Err()
	}
}

// listOn is the master catalog request with the same bound as openOn.
func (f *Fabric) listOn(ctx context.Context, m *member) ([]string, error) {
	client := m.clientFor(f.cfg)
	type result struct {
		names []string
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		names, err := client.ListDatasets()
		ch <- result{names, err}
	}()
	select {
	case r := <-ch:
		return r.names, r.err
	case <-ctx.Done():
		m.resetClient()
		<-ch
		return nil, ctx.Err()
	}
}

// readOrder sorts the dataset's rendezvous order for a read: available
// clusters first (placement order preserved within each class), then
// backed-off ones, drained last. Everything stays in the list — a demoted
// cluster is still attempted as last resort, and succeeding there restores
// it, which is what makes the next read after an outage the recovery probe.
func (f *Fabric) readOrder(replicas []string) []*member {
	now := time.Now()
	var avail, down, drained []*member
	for _, name := range replicas {
		m, ok := f.byName[name]
		if !ok {
			continue
		}
		m.mu.Lock()
		isDrained := m.drained
		isDown := !m.healthy && now.Before(m.downUntil)
		m.mu.Unlock()
		switch {
		case isDrained:
			drained = append(drained, m)
		case isDown:
			down = append(down, m)
		default:
			avail = append(avail, m)
		}
	}
	out := append(avail, down...)
	return append(out, drained...)
}

// ---------------------------------------------------------------------------
// Datasets: staging and catalog.

// Create registers a dataset on each of its placement clusters and returns
// the clusters that accepted it, in placement order. Creation is best-effort
// per replica: as long as one cluster accepts, the dataset exists (with
// reduced redundancy); with zero acceptors the first error is returned.
func (f *Fabric) Create(ctx context.Context, name string, size int64, blockSize int) ([]string, error) {
	placement := f.Placement(name)
	var accepted []string
	var firstErr error
	for _, cluster := range placement {
		if err := ctx.Err(); err != nil {
			return accepted, err
		}
		m := f.byName[cluster]
		if _, err := f.createOn(ctx, m, name, size, blockSize); err != nil {
			// Idempotent re-create: a cluster already holding the dataset is
			// an acceptor (re-staging overwrites its blocks), not a failure.
			if !errors.Is(err, dpss.ErrDatasetExists) {
				if !errors.Is(err, context.Canceled) {
					f.markFailure(m, err)
					m.resetClient()
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("fabric: creating %q on %s: %w", name, cluster, err)
				}
				continue
			}
		}
		f.markSuccess(m)
		accepted = append(accepted, cluster)
	}
	if len(accepted) == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("fabric: creating %q: no placement clusters", name)
		}
		return nil, firstErr
	}
	return accepted, nil
}

// StageOn writes a dataset's bytes to one named cluster, block by block (the
// dataset must have been created there first). onChunk, when non-nil, is
// called after every block write with the cumulative byte count — the
// per-cluster progress feed of the warming pipeline.
func (f *Fabric) StageOn(ctx context.Context, cluster, name string, data []byte, onChunk func(staged int64)) error {
	m, ok := f.byName[cluster]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCluster, cluster)
	}
	file, err := f.openOn(ctx, m, name)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			f.markFailure(m, err)
			m.resetClient()
		}
		return fmt.Errorf("fabric: opening %q on %s: %w", name, cluster, err)
	}
	blockSize := file.Info().BlockSize
	var off int64
	for off < int64(len(data)) {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := off + int64(blockSize)
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		if _, err := file.WriteAtContext(ctx, data[off:end], off); err != nil {
			if !errors.Is(err, context.Canceled) {
				f.markFailure(m, err)
				m.resetClient()
			}
			return fmt.Errorf("fabric: writing %q block at %d on %s: %w", name, off, cluster, err)
		}
		off = end
		if onChunk != nil {
			onChunk(off)
		}
	}
	f.markSuccess(m)
	return nil
}

// LoadBytes creates a dataset and writes data to all of its replicas
// concurrently, returning the clusters that hold a complete copy. Like
// Create it degrades rather than fails: an error is returned only when no
// replica ends up complete.
func (f *Fabric) LoadBytes(ctx context.Context, name string, data []byte, blockSize int) ([]string, error) {
	accepted, err := f.Create(ctx, name, int64(len(data)), blockSize)
	if err != nil {
		return nil, err
	}
	type result struct {
		cluster string
		err     error
	}
	results := make(chan result, len(accepted))
	for _, cluster := range accepted {
		go func(cluster string) {
			results <- result{cluster, f.StageOn(ctx, cluster, name, data, nil)}
		}(cluster)
	}
	var complete []string
	var firstErr error
	for range accepted {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		complete = append(complete, r.cluster)
	}
	if len(complete) == 0 {
		return nil, firstErr
	}
	sort.Strings(complete)
	return complete, nil
}

// DatasetReplicas describes one dataset's presence across the federation.
type DatasetReplicas struct {
	Name string
	// Clusters holds the dataset, in rendezvous (read-priority) order.
	Clusters []string
}

// Datasets returns the federation-wide catalog: the union of every reachable
// member's catalog (masters that do not answer are skipped and marked
// unhealthy), each dataset annotated with the clusters holding it.
func (f *Fabric) Datasets(ctx context.Context) []DatasetReplicas {
	out, _ := f.catalogScan(ctx)
	return out
}

// catalogScan is Datasets plus the set of members that answered the scan —
// the rebalance planner restricts copy targets to them, so a freshly dead
// cluster whose backoff already expired is never chosen to receive data it
// cannot take.
func (f *Fabric) catalogScan(ctx context.Context) ([]DatasetReplicas, map[string]bool) {
	holders := make(map[string][]string)
	live := make(map[string]bool, len(f.members))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range f.members {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			names, err := f.listOn(ctx, m)
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					f.markFailure(m, err)
					m.resetClient()
				}
				return
			}
			f.markSuccess(m)
			mu.Lock()
			live[m.name] = true
			for _, n := range names {
				holders[n] = append(holders[n], m.name)
			}
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	out := make([]DatasetReplicas, 0, len(holders))
	for name, clusters := range holders {
		// Order holders by the dataset's read priority (epoch-aware).
		order := f.readSet(name)
		sorted := make([]string, 0, len(clusters))
		for _, c := range order {
			if contains(clusters, c) {
				sorted = append(sorted, c)
			}
		}
		out = append(out, DatasetReplicas{Name: name, Clusters: sorted})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, live
}

// ---------------------------------------------------------------------------
// Reads: replica-aware open and failover.

// File is an open federated dataset: reads walk the replica list in health
// order and fail over transparently. It implements io.ReaderAt and the
// context-aware read the back end's sources use.
type File struct {
	fb   *Fabric
	name string
	info dpss.DatasetInfo

	mu sync.Mutex
	// per-cluster handles, lazily opened
	// guarded by mu
	files map[string]*dpss.File
}

// Open resolves the dataset against its replicas (first responder wins) and
// returns a failover-capable handle. Every replica down or ignorant of the
// dataset yields ErrAllReplicasFailed with the per-cluster detail. The handle
// is epoch-conscious: each read re-resolves the replica priority against the
// fabric's current (and, mid-migration, previous) placement epoch, so an
// epoch advanced after Open neither aborts the handle nor hides the replicas
// it was reading from.
func (f *Fabric) Open(ctx context.Context, name string) (*File, error) {
	var errs []string
	for _, m := range f.readOrder(f.readSet(name)) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		df, err := f.openOn(ctx, m, name)
		if err != nil {
			if errors.Is(err, dpss.ErrUnknownDataset) {
				// A cluster that answered "unknown dataset" is healthy — it
				// just never received a copy (spilled placement) — and the
				// completed exchange restores a backed-off member.
				f.markSuccess(m)
			} else if !errors.Is(err, context.Canceled) {
				f.markFailure(m, err)
				m.resetClient()
			}
			errs = append(errs, fmt.Sprintf("%s: %v", m.name, err))
			continue
		}
		f.markSuccess(m)
		file := &File{fb: f, name: name, info: df.Info(),
			files: map[string]*dpss.File{m.name: df}}
		return file, nil
	}
	return nil, fmt.Errorf("%w: opening %q: [%s]", ErrAllReplicasFailed, name, strings.Join(errs, "; "))
}

// Info returns the dataset layout (as reported by the replica that answered
// Open).
func (f *File) Info() dpss.DatasetInfo { return f.info }

// Size returns the dataset size in bytes.
func (f *File) Size() int64 { return f.info.Size }

// handle returns (opening if needed) this dataset's handle on one cluster.
// The open is bounded like any other replica attempt, so a wedged master
// cannot pin the failover loop.
func (f *File) handle(ctx context.Context, m *member) (*dpss.File, error) {
	f.mu.Lock()
	if df, ok := f.files[m.name]; ok {
		f.mu.Unlock()
		return df, nil
	}
	f.mu.Unlock()
	df, err := f.fb.openOn(ctx, m, f.name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.files[m.name] = df
	f.mu.Unlock()
	return df, nil
}

// forgetHandle forgets this dataset's handle on one cluster so the next
// attempt re-opens it; the cluster's client is left alone.
func (f *File) forgetHandle(m *member) {
	f.mu.Lock()
	delete(f.files, m.name)
	f.mu.Unlock()
}

// dropHandle is forgetHandle plus a client reset, for failures whose
// connections must not be reused.
func (f *File) dropHandle(m *member) {
	f.forgetHandle(m)
	m.resetClient()
}

// ReadAt reads len(p) bytes at offset off with replica failover. It
// implements io.ReaderAt, whose signature has no context; each replica
// attempt is still bounded by the fabric's AttemptTimeout.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtContext(context.Background(), p, off) //vislint:ignore ctxbackground io.ReaderAt compatibility shim; see ReadAtContext
}

// ReadAtContext is ReadAt under a context. Replicas are tried in health
// order; one attempt is bounded by the fabric's AttemptTimeout (when set),
// so a read wedged on a stalled block server is aborted in flight — the
// PR 3 context-aware client read — its cluster marked unhealthy, and the
// same range re-read from the next replica. Cancelling ctx itself aborts the
// whole read without blaming the replica. With every replica failed the
// error is ErrAllReplicasFailed carrying the per-cluster detail — a fully
// dark dataset reports, it does not hang.
func (f *File) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	// Re-resolve the replica priority per read: an epoch advance mid-run must
	// steer this handle to the new placement without invalidating it, and the
	// migration window keeps the old epoch's replicas in the set.
	order := f.fb.readOrder(f.fb.readSet(f.name))
	var errs []string
	for _, m := range order {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		df, err := f.handle(ctx, m)
		if err == nil {
			attemptCtx := ctx
			cancel := func() {}
			if f.fb.cfg.AttemptTimeout > 0 {
				attemptCtx, cancel = context.WithTimeout(ctx, f.fb.cfg.AttemptTimeout)
			}
			n, rerr := df.ReadAtContext(attemptCtx, p, off)
			cancel()
			if rerr == nil || rerr == io.EOF {
				f.fb.markSuccess(m)
				return n, rerr
			}
			err = rerr
		}
		if ctxErr := ctx.Err(); ctxErr != nil { // the caller's own cancellation
			return 0, ctxErr
		}
		if errors.Is(err, dpss.ErrUnknownDataset) {
			// Healthy cluster without a copy: the completed exchange restores
			// a backed-off member; forget the handle so a later staging is
			// picked up.
			f.fb.markSuccess(m)
			f.forgetHandle(m)
		} else {
			f.fb.markFailure(m, err)
			f.dropHandle(m)
		}
		errs = append(errs, fmt.Sprintf("%s: %v", m.name, err))
	}
	return 0, fmt.Errorf("%w: reading %q at %d: [%s]", ErrAllReplicasFailed, f.name, off, strings.Join(errs, "; "))
}

// ReadvScatter reads every extent into its destination slice in one
// vectored, striped pass (see dpss.File.ReadvScatter) with replica failover:
// a batch that fails mid-read — a cluster killed while extents are in
// flight — is retried in full against the next replica, so destinations are
// simply overwritten with the same bytes and the caller never observes a
// torn extent. Error accounting mirrors ReadAtContext: a failed attempt
// marks its cluster unhealthy, a healthy cluster without a copy stays
// healthy, and with every replica failed the error is ErrAllReplicasFailed.
func (f *File) ReadvScatter(ctx context.Context, exts []dpss.Extent) error {
	order := f.fb.readOrder(f.fb.readSet(f.name))
	var errs []string
	for _, m := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		df, err := f.handle(ctx, m)
		if err == nil {
			attemptCtx := ctx
			cancel := func() {}
			if f.fb.cfg.AttemptTimeout > 0 {
				attemptCtx, cancel = context.WithTimeout(ctx, f.fb.cfg.AttemptTimeout)
			}
			rerr := df.ReadvScatter(attemptCtx, exts)
			cancel()
			if rerr == nil {
				f.fb.markSuccess(m)
				return nil
			}
			err = rerr
		}
		if ctxErr := ctx.Err(); ctxErr != nil { // the caller's own cancellation
			return ctxErr
		}
		if errors.Is(err, dpss.ErrUnknownDataset) {
			f.fb.markSuccess(m)
			f.forgetHandle(m)
		} else {
			f.fb.markFailure(m, err)
			f.dropHandle(m)
		}
		errs = append(errs, fmt.Sprintf("%s: %v", m.name, err))
	}
	return fmt.Errorf("%w: vectored read of %q: [%s]", ErrAllReplicasFailed, f.name, strings.Join(errs, "; "))
}

// StripeStats returns every member client's per-stripe transfer counters,
// keyed by cluster name. Clusters whose client has not been built (never
// read from) are omitted.
func (f *Fabric) StripeStats() map[string][]dpss.StripeStat {
	out := make(map[string][]dpss.StripeStat, len(f.members))
	for _, m := range f.members {
		m.mu.Lock()
		c := m.client
		m.mu.Unlock()
		if c == nil {
			continue
		}
		if st := c.StripeStats(); len(st) > 0 {
			out[m.name] = st
		}
	}
	return out
}

// Stripes returns the configured per-server stripe count (0 = client
// default).
func (f *Fabric) Stripes() int { return f.cfg.Stripes }

// Close releases the handle. The fabric's connections stay up for other
// files.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for name, df := range f.files {
		df.Close()
		delete(f.files, name)
	}
	return nil
}

// Close tears down every member client.
func (f *Fabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	var first error
	for _, m := range f.members {
		m.mu.Lock()
		c := m.client
		m.client = nil
		m.mu.Unlock()
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
