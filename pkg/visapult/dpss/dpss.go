// Package dpss is the public surface of the Distributed-Parallel Storage
// System reproduction: the network data cache of the paper's section 3.2
// (master catalog, striped block servers, block-level client API).
//
// It re-exports the internal implementation as aliases, so clients built
// here plug straight into visapult.NewDPSSSource, and adds the staging
// helpers the administrative tools use.
package dpss

import (
	"context"
	"fmt"
	"time"

	"visapult/internal/datagen"
	"visapult/internal/dpss"
	"visapult/internal/dpss/fabric"
	"visapult/internal/hpss"
	"visapult/internal/offline"
	"visapult/internal/render"
)

// Client is the block-level DPSS client: Create, Open, Stat, and striped
// parallel block reads across the cluster's servers.
type Client = dpss.Client

// ClientOption configures a client.
type ClientOption = dpss.ClientOption

// NewClient connects to the master at the given address.
var NewClient = dpss.NewClient

// WithStripes sets how many parallel striped connections the client keeps
// per block server (the paper's parallel-socket data path).
var WithStripes = dpss.WithStripes

// StripeStat is a per-stripe-connection transfer counter snapshot.
type StripeStat = dpss.StripeStat

// NewMaster builds a master; call Listen to serve.
var NewMaster = dpss.NewMaster

// BlockServer serves blocks striped over several in-memory disks.
type BlockServer = dpss.BlockServer

// ServerOption configures a block server.
type ServerOption = dpss.ServerOption

// NewBlockServer builds a block server; call Listen to serve.
var NewBlockServer = dpss.NewBlockServer

// WithDisks sets the number of disks a block server stripes over.
var WithDisks = dpss.WithDisks

// WithPipelineWorkers bounds how many pipelined (v2) requests a block server
// services concurrently per client connection.
var WithPipelineWorkers = dpss.WithPipelineWorkers

// Cluster is an in-process DPSS installation (master plus block servers),
// the stand-in for the paper's four-server terabyte DPSS at LBL.
type Cluster = dpss.Cluster

// ClusterConfig sizes a cluster.
type ClusterConfig = dpss.ClusterConfig

// StartCluster starts an in-process cluster.
var StartCluster = dpss.StartCluster

// DefaultBlockSize is the cache's default logical block size.
const DefaultBlockSize = dpss.DefaultBlockSize

// Fabric federates several DPSS clusters into one logical cache: rendezvous
// placement, R-way replication, health-tracked client-side failover.
type Fabric = fabric.Fabric

// FabricConfig sizes a Fabric.
type FabricConfig = fabric.Config

// FabricClusterSpec names one member cluster and its master address.
type FabricClusterSpec = fabric.ClusterSpec

// RebalanceOptions shapes one rebalance-engine run; RebalanceReport
// summarizes it; DatasetMove is one live (dataset, target) copy record. The
// engine itself is driven through Fabric.Rebalance, Fabric.Repair and
// Fabric.DrainToEmpty.
type (
	RebalanceOptions = fabric.RebalanceOptions
	RebalanceReport  = fabric.RebalanceReport
	DatasetMove      = fabric.DatasetMove
)

// NewFabric builds a federation handle; no connection is made until use.
var NewFabric = fabric.New

// WarmConfig shapes a fabric cache-warming run.
type WarmConfig = hpss.WarmConfig

// WarmProgress is one per-cluster progress event of a warming run.
type WarmProgress = hpss.WarmProgress

// WarmReport summarizes a warming run.
type WarmReport = hpss.WarmReport

// ThumbnailOptions configures offline preview generation.
type ThumbnailOptions = offline.ThumbnailOptions

// Thumbnail renders a preview image plus catalog metadata for one cached
// timestep — the paper's section 5 offline visualization service. Cancelling
// ctx aborts the cache reads in flight.
func Thumbnail(ctx context.Context, client *Client, base string, nx, ny, nz, timestep int, opts ThumbnailOptions) (*render.Image, *offline.Metadata, error) {
	return offline.Thumbnail(ctx, client, base, nx, ny, nz, timestep, opts)
}

// StageCombustion generates the synthetic combustion dataset and writes each
// timestep into the cache through the ordinary client API (the paper's
// HPSS-to-DPSS migration step). It returns the per-timestep encoded size and
// the time spent in cache writes alone — data generation excluded — so
// callers can report genuine cache throughput.
func StageCombustion(client *Client, base string, nx, ny, nz, steps, blockSize int, seed int64) (stepBytes int64, writeTime time.Duration, err error) {
	if seed == 0 {
		seed = 2000
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	gen := datagen.NewCombustion(datagen.CombustionConfig{
		NX: nx, NY: ny, NZ: nz, Timesteps: steps, Seed: seed,
	})
	for t := 0; t < steps; t++ {
		name := dpss.TimestepDatasetName(base, t)
		data := gen.Generate(t).Marshal()
		stepBytes = int64(len(data))
		if _, err := client.Create(name, int64(len(data)), blockSize); err != nil {
			return stepBytes, writeTime, fmt.Errorf("creating %s: %w", name, err)
		}
		f, err := client.Open(name)
		if err != nil {
			return stepBytes, writeTime, fmt.Errorf("opening %s: %w", name, err)
		}
		start := time.Now()
		_, werr := f.WriteAt(data, 0)
		writeTime += time.Since(start)
		if werr != nil {
			return stepBytes, writeTime, fmt.Errorf("writing %s: %w", name, werr)
		}
	}
	return stepBytes, writeTime, nil
}

// WarmCombustion generates the synthetic combustion dataset and warms it
// into the federation through the HPSS staging pipeline: every timestep is
// stored whole-file in an in-memory archive, then staged into all of its
// placement replicas concurrently with the warm-ahead window — the
// federation-scale version of StageCombustion.
func WarmCombustion(ctx context.Context, fb *Fabric, base string, nx, ny, nz, steps int, seed int64, cfg WarmConfig) (*WarmReport, error) {
	if seed == 0 {
		seed = 2000
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	gen := datagen.NewCombustion(datagen.CombustionConfig{
		NX: nx, NY: ny, NZ: nz, Timesteps: steps, Seed: seed,
	})
	a := hpss.NewArchive()
	for t := 0; t < steps; t++ {
		a.Store(dpss.TimestepDatasetName(base, t), gen.Generate(t).Marshal())
	}
	return hpss.WarmTimesteps(ctx, a, fb, base, steps, cfg)
}
