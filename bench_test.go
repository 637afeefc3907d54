// Package visapult_bench regenerates every experiment of the paper's
// evaluation as a Go benchmark: one BenchmarkE<n> per entry of the experiment
// index in DESIGN.md (E1-E12). Each benchmark reports the headline quantities
// of the corresponding figure or claim through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows the paper reports, next to the usual ns/op numbers.
// Component-level micro-benchmarks (rendering, wire marshalling, DPSS reads,
// striped sockets) follow the experiment benchmarks.
package visapult_bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"visapult/internal/backend"
	"visapult/internal/core"
	"visapult/internal/datagen"
	"visapult/internal/dpss"
	"visapult/internal/dpss/fabric"
	"visapult/internal/ibr"
	"visapult/internal/netsim"
	"visapult/internal/render"
	"visapult/internal/transfer"
	"visapult/internal/volume"
	"visapult/internal/wire"
	"visapult/pkg/visapult"
)

// ---------------------------------------------------------------------------
// Experiment benchmarks (E1-E12). These exercise the same code the visharness
// command runs and report the paper-comparable quantities as custom metrics.

// BenchmarkE1_DPSSThroughput reproduces the DPSS headline numbers: 980 Mbps
// across a LAN, 570 Mbps across a WAN (section 2).
func BenchmarkE1_DPSSThroughput(b *testing.B) {
	var lan, wan float64
	for i := 0; i < b.N; i++ {
		r := core.RunE1()
		for _, row := range r.Rows {
			if row.Servers == 4 {
				lan, wan = row.LANMbps, row.WANMbps
			}
		}
	}
	b.ReportMetric(lan, "LAN-Mbps")
	b.ReportMetric(wan, "WAN-Mbps")
}

// BenchmarkE2_SC99Topologies reproduces the SC99 sustained rates: 250 Mbps to
// CPlant over NTON, 150 Mbps to the show floor over SciNet (section 4.1).
func BenchmarkE2_SC99Topologies(b *testing.B) {
	var res *core.E2Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunE2()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.CPlantMbps, "CPlant-Mbps")
	b.ReportMetric(res.ShowFloorMbps, "showfloor-Mbps")
}

// BenchmarkE3_FirstLight reproduces Figure 10: ~3 s and ~433 Mbps to load
// 160 MB over NTON, ~70% utilization, 8-9 s of rendering on four PEs.
func BenchmarkE3_FirstLight(b *testing.B) {
	var res *core.E3Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunE3()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.LoadSeconds, "load-s")
	b.ReportMetric(res.LoadMbps, "Mbps")
	b.ReportMetric(res.Utilization*100, "util-%")
	b.ReportMetric(res.RenderSeconds, "render-s")
}

// BenchmarkE4_SerialVsOverlappedSMPLAN reproduces Figures 12-13: ~265 s
// serial versus ~169 s overlapped for ten timesteps on the Sun E4500.
func BenchmarkE4_SerialVsOverlappedSMPLAN(b *testing.B) {
	var res *core.E4Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunE4()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.SerialTotal.Seconds(), "serial-s")
	b.ReportMetric(res.OverlappedTotal.Seconds(), "overlapped-s")
	b.ReportMetric(res.MeasuredSpeedup, "speedup")
}

// BenchmarkE5_CPlantNTON reproduces Figures 14-15: load time flat from four
// to eight nodes, render time halved, overlapped loads inflated and unstable
// on single-CPU nodes.
func BenchmarkE5_CPlantNTON(b *testing.B) {
	var res *core.E5Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunE5()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	s4, s8 := res.Row(4, backend.Serial), res.Row(8, backend.Serial)
	o8 := res.Row(8, backend.Overlapped)
	b.ReportMetric(s4.MeanLoad.Seconds(), "load4-s")
	b.ReportMetric(s8.MeanLoad.Seconds(), "load8-s")
	b.ReportMetric(s4.MeanRender.Seconds(), "render4-s")
	b.ReportMetric(s8.MeanRender.Seconds(), "render8-s")
	b.ReportMetric(o8.LoadCV, "overlap-load-CV")
}

// BenchmarkE6_SMPESnet reproduces Figures 16-17: ~10 s and ~128 Mbps per
// 160 MB frame from LBL to ANL over ESnet, load-dominated, with negligible
// overlap contention on the SMP.
func BenchmarkE6_SMPESnet(b *testing.B) {
	var res *core.E6Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunE6()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.SerialLoad.Seconds(), "load-s")
	b.ReportMetric(res.SerialMbps, "Mbps")
	b.ReportMetric(res.OverlappedCV, "overlap-load-CV")
}

// BenchmarkE7_OverlapModel validates the section 4.3 analytic model against
// the simulated pipeline across L/R ratios and timestep counts.
func BenchmarkE7_OverlapModel(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunE7()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range r.Rows {
			dev := row.Simulated/row.Analytic - 1
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
		}
	}
	b.ReportMetric(worst*100, "max-model-deviation-%")
}

// BenchmarkE8_IBRAVRArtifacts reproduces Figure 6 and the ~16-degree
// artifact-free cone of section 3.3.
func BenchmarkE8_IBRAVRArtifacts(b *testing.B) {
	var res *core.E8Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunE8()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.ConeDegrees, "cone-deg")
	if len(res.Points) > 0 {
		b.ReportMetric(res.Points[len(res.Points)-1].RMSE, "rmse-90deg")
	}
}

// BenchmarkE9_TerascaleProjection reproduces the section 5 projections: ~8
// minutes over NTON, ~44 minutes over ESnet, and an OC-192 needed for five
// timesteps per second.
func BenchmarkE9_TerascaleProjection(b *testing.B) {
	var res *core.E9Result
	for i := 0; i < b.N; i++ {
		res = core.RunE9()
	}
	b.ReportMetric(res.NTONTransfer.Minutes(), "NTON-min")
	b.ReportMetric(res.ESnetTransfer.Minutes(), "ESnet-min")
	b.ReportMetric(res.MultipleOfOC12, "xOC12-needed")
}

// BenchmarkE10_PipelineTraffic reproduces the O(n^3)-to-O(n^2) traffic
// reduction between the data source and the viewer (sections 3.4 and 4.1).
func BenchmarkE10_PipelineTraffic(b *testing.B) {
	var res *core.E10Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunE10()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.Ratio, "reduction-x")
	b.ReportMetric(float64(last.SourceBytes), "source-bytes")
	b.ReportMetric(float64(last.ViewerBytes), "viewer-bytes")
}

// BenchmarkE11_PlatformContention reproduces the contention/MTU ablation:
// overlap benefit on single-CPU cluster nodes versus jumbo frames versus the
// SMP.
func BenchmarkE11_PlatformContention(b *testing.B) {
	var res *core.E11Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunE11()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	for _, row := range res.Rows {
		switch row.Label {
		case "CPlant (1 CPU/node, 1500 B MTU)":
			b.ReportMetric(row.SpeedupVsSerial, "cluster-speedup")
		case "Onyx2 SMP (shared NIC)":
			b.ReportMetric(row.SpeedupVsSerial, "smp-speedup")
		}
	}
}

// BenchmarkE12_Decomposition reproduces the Figure 4 decomposition
// comparison.
func BenchmarkE12_Decomposition(b *testing.B) {
	var res *core.E12Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunE12()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Rows[0].Imbalance, "slab-imbalance")
	b.ReportMetric(float64(res.Rows[0].PerPEBytes), "slab-bytes-per-PE")
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks.

func benchVolume(b *testing.B, nx, ny, nz int) *volume.Volume {
	b.Helper()
	gen := datagen.NewCombustion(datagen.CombustionConfig{NX: nx, NY: ny, NZ: nz, Timesteps: 1, Seed: 3})
	return gen.Generate(0)
}

// BenchmarkRenderSlab measures the per-PE software volume rendering cost, the
// R of the paper's model.
func BenchmarkRenderSlab(b *testing.B) {
	v := benchVolume(b, 80, 64, 64)
	r := volume.Region{X1: v.NX, Y1: v.NY, Z1: v.NZ / 4}
	tf := render.DefaultCombustionTF()
	b.SetBytes(r.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.RenderSlab(v, r, tf, volume.AxisZ)
	}
}

// BenchmarkRenderKernel compares the raycaster variants of PR 9 on the
// standard bench volume: the scalar oracle, the LUT kernel, the LUT kernel
// with empty-space skipping, and the shared pool at 1/2/4 workers. The
// parallel runs draw images from the free list, so with -benchmem they
// demonstrate the 0 allocs/frame steady state.
func BenchmarkRenderKernel(b *testing.B) {
	v := benchVolume(b, 80, 64, 64)
	r := volume.Region{X1: v.NX, Y1: v.NY, Z1: v.NZ / 4}
	tf := render.DefaultCombustionTF()
	lut := render.BuildLUT(tf)
	cells := render.BuildMacrocells(v)

	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(r.Bytes())
		for i := 0; i < b.N; i++ {
			render.RenderSlab(v, r, tf, volume.AxisZ)
		}
	})
	b.Run("lut", func(b *testing.B) {
		b.SetBytes(r.Bytes())
		for i := 0; i < b.N; i++ {
			render.RenderSlabLUT(v, r, lut, nil, volume.AxisZ)
		}
	})
	b.Run("lut-skip", func(b *testing.B) {
		b.SetBytes(r.Bytes())
		for i := 0; i < b.N; i++ {
			render.RenderSlabLUT(v, r, lut, cells, volume.AxisZ)
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			pool := render.NewPool(workers)
			defer pool.Close()
			ctx := context.Background()
			b.SetBytes(r.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img := render.GetImage(80, 64)
				if _, err := pool.RenderSlab(ctx, v, r, lut, cells, volume.AxisZ, img); err != nil {
					b.Fatal(err)
				}
				render.PutImage(img)
			}
		})
	}
}

// BenchmarkIBRComposite measures the viewer-side IBR compositing of slab
// textures into a view.
func BenchmarkIBRComposite(b *testing.B) {
	v := benchVolume(b, 64, 64, 64)
	m := ibr.BuildModel(v, render.DefaultCombustionTF(), volume.AxisZ, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CompositeView(0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireHeavyPayloadRoundTrip measures marshalling plus unmarshalling
// of a typical heavy payload (a 256 KB texture).
func BenchmarkWireHeavyPayloadRoundTrip(b *testing.B) {
	img := render.NewImage(256, 256)
	img.Fill(0.4, 0.3, 0.2, 0.7)
	hp := &wire.HeavyPayload{Frame: 1, PE: 0, TexWidth: 256, TexHeight: 256, Texture: img.ToRGBA8()}
	b.SetBytes(hp.WireSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := hp.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var out wire.HeavyPayload
		if err := out.UnmarshalBinary(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPSSRead measures block-level reads from an in-process DPSS
// cluster through the client API, the paper's dpssRead path.
func BenchmarkDPSSRead(b *testing.B) {
	cluster, err := dpss.StartCluster(dpss.ClusterConfig{Servers: 4, DisksPerServer: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient()
	defer client.Close()
	payload := make([]byte, 4<<20)
	if _, err := cluster.LoadBytes(client, "bench", payload, dpss.DefaultBlockSize); err != nil {
		b.Fatal(err)
	}
	f, err := client.Open("bench")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%4) << 20
		if _, err := f.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPSSRegionRead measures the striped, pipelined DPSS data path on a
// general-case region read (one extent per row — the access pattern that used
// to cost one lock-step round trip per row) at 1, 2 and 4 stripes per block
// server, over two link shapes:
//
//   - lan: unshaped loopback — stripes should neither help nor hurt much.
//   - wan: every server connection is individually capped at 8 MB/s, the
//     window-limited single-TCP-socket ceiling of the paper's WAN paths.
//     Striping is the paper's answer: parallel sockets aggregate to the full
//     path rate, so 4 stripes must deliver well over 2x the 1-stripe rate.
//
// The whole region travels as a handful of msgReadv exchanges and scatters
// straight into the region slab; -benchmem shows the steady state allocating
// nothing per block.
func BenchmarkDPSSRegionRead(b *testing.B) {
	const (
		nx, ny, nz = 64, 64, 64
		blockSize  = 32 << 10
		wanRate    = 8 << 20 // per-connection ceiling, bytes/s
	)
	vol := volume.MustNew(nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				vol.Set(x, y, z, float32((x+2*y+3*z)%97)/97)
			}
		}
	}
	// Not full-X: the general decomposition, one extent per (y, z) row.
	region := volume.Region{X0: 8, X1: 56, Y0: 8, Y1: 56, Z0: 0, Z1: nz}

	shapes := []struct {
		name    string
		perConn func() *netsim.Shaper
	}{
		{"lan", nil},
		{"wan", func() *netsim.Shaper { return netsim.NewShaper(wanRate, 64<<10) }},
	}
	for _, shape := range shapes {
		cluster, err := dpss.StartCluster(dpss.ClusterConfig{
			Servers: 2, DisksPerServer: 2, PerConnShaper: shape.perConn,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer cluster.Close()
		loader := cluster.NewClient()
		if _, err := cluster.LoadVolume(loader, dpss.TimestepDatasetName("region", 0), vol, blockSize); err != nil {
			b.Fatal(err)
		}
		loader.Close()

		for _, stripes := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/stripes-%d", shape.name, stripes), func(b *testing.B) {
				client := cluster.NewClient(dpss.WithStripes(stripes))
				defer client.Close()
				src, err := backend.NewDPSSSource(client, "region", nx, ny, nz, 1)
				if err != nil {
					b.Fatal(err)
				}
				defer src.Close()
				ctx := context.Background()
				// Warm: version probe, stripe dials, pool population.
				if _, _, err := src.LoadRegion(ctx, 0, region); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(region.Bytes())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := src.LoadRegion(ctx, 0, region); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFabricLoadRegion measures aggregate region-read throughput from a
// federated DPSS fabric as the cluster count grows (1 vs 2 vs 4), each
// cluster behind its own emulated WAN link. Timesteps shard across the
// federation by rendezvous hashing, so concurrent loads engage every
// cluster's link at once — the aggregate-throughput scaling claim of the
// multi-cache corridor, tracked over time through BENCH_ci.json.
func BenchmarkFabricLoadRegion(b *testing.B) {
	const (
		nx, ny, nz = 32, 32, 32
		steps      = 8
		blockSize  = 32 << 10
		// linkRate caps each cluster's aggregate server traffic, so the
		// deliverable rate scales with the cluster count, not loopback speed.
		linkRate = 100 << 20 // 100 MB/s per cluster link
	)
	vol := volume.MustNew(nx, ny, nz)
	vol.Fill(0.5)
	encoded := vol.Marshal()
	region := volume.Region{X1: nx, Y1: ny, Z1: nz}

	for _, nClusters := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dclusters", nClusters), func(b *testing.B) {
			var specs []fabric.ClusterSpec
			for i := 0; i < nClusters; i++ {
				cluster, err := dpss.StartCluster(dpss.ClusterConfig{
					Servers: 2, DisksPerServer: 2,
					ServerShaper: netsim.NewShaper(linkRate, 64<<10),
				})
				if err != nil {
					b.Fatal(err)
				}
				defer cluster.Close()
				specs = append(specs, fabric.ClusterSpec{Name: fmt.Sprintf("c%d", i), Master: cluster.MasterAddr})
			}
			fb, err := fabric.New(fabric.Config{Clusters: specs, Replication: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer fb.Close()
			ctx := context.Background()
			for t := 0; t < steps; t++ {
				name := dpss.TimestepDatasetName("fbench", t)
				if _, err := fb.LoadBytes(ctx, name, encoded, blockSize); err != nil {
					b.Fatal(err)
				}
			}
			src, err := backend.NewFabricSource(fb, "fbench", nx, ny, nz, steps)
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()

			b.SetBytes(int64(steps) * src.StepBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errCh := make(chan error, steps)
				for t := 0; t < steps; t++ {
					wg.Add(1)
					go func(t int) {
						defer wg.Done()
						if _, _, err := src.LoadRegion(ctx, t, region); err != nil {
							errCh <- err
						}
					}(t)
				}
				wg.Wait()
				select {
				case err := <-errCh:
					b.Fatal(err)
				default:
				}
			}
		})
	}
}

// BenchmarkFabricRebalance measures the rebalance engine's cluster-to-cluster
// migration rate: three clusters behind independent emulated WAN links, R=2,
// one member drained to empty — every dataset it held is streamed
// block-by-block onto the surviving members and then deleted off it. The
// MB/s metric (migrated bytes over wall-clock) is the fabric-repair headline
// tracked in BENCH_ci.json.
func BenchmarkFabricRebalance(b *testing.B) {
	const (
		datasets    = 6
		datasetSize = 1 << 20 // 1 MiB each
		blockSize   = 64 << 10
		linkRate    = 100 << 20 // 100 MB/s per cluster link
	)
	payload := make([]byte, datasetSize)
	for i := range payload {
		payload[i] = byte(i % 253)
	}
	ctx := context.Background()
	var lastRate float64
	var migrated int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var specs []fabric.ClusterSpec
		var clusters []*dpss.Cluster
		for c := 0; c < 3; c++ {
			cluster, err := dpss.StartCluster(dpss.ClusterConfig{
				Servers: 2, DisksPerServer: 2,
				ServerShaper: netsim.NewShaper(linkRate, 64<<10),
			})
			if err != nil {
				b.Fatal(err)
			}
			clusters = append(clusters, cluster)
			specs = append(specs, fabric.ClusterSpec{Name: fmt.Sprintf("c%d", c), Master: cluster.MasterAddr})
		}
		fb, err := fabric.New(fabric.Config{Clusters: specs, Replication: 2})
		if err != nil {
			b.Fatal(err)
		}
		for d := 0; d < datasets; d++ {
			name := dpss.TimestepDatasetName("rbench", d)
			if _, err := fb.LoadBytes(ctx, name, payload, blockSize); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		report, err := fb.DrainToEmpty(ctx, "c0", fabric.RebalanceOptions{})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		lastRate = report.RateMBps()
		migrated += report.Bytes
		fb.Close()
		for _, cluster := range clusters {
			cluster.Close()
		}
		b.StartTimer()
	}
	b.ReportMetric(lastRate, "migrate-MB/s")
	b.ReportMetric(float64(migrated)/float64(b.N)/(1<<20), "migrated-MiB")
}

// BenchmarkStripedSocketThroughput measures the striped-socket transport used
// between the back end and the viewer.
func BenchmarkStripedSocketThroughput(b *testing.B) {
	for _, lanes := range []int{1, 4} {
		b.Run(map[int]string{1: "1lane", 4: "4lanes"}[lanes], func(b *testing.B) {
			l, err := newLoopbackListener()
			if err != nil {
				b.Fatal(err)
			}
			sl := wire.NewStripeListener(l, 0)
			defer sl.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				s, err := sl.Accept()
				if err != nil {
					return
				}
				buf := make([]byte, 1<<20)
				for {
					if _, err := s.Read(buf); err != nil {
						return
					}
				}
			}()
			s, err := wire.DialStriped(l.Addr().String(), lanes, 0)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 1<<20)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Write(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s.Close()
			<-done
		})
	}
}

// BenchmarkEndToEndSession measures a complete in-process pipeline (synthetic
// data, 4 PEs, overlapped, local transport) per iteration.
func BenchmarkEndToEndSession(b *testing.B) {
	gen := datagen.NewCombustion(datagen.CombustionConfig{NX: 32, NY: 16, NZ: 16, Timesteps: 2, Seed: 5})
	src := backend.NewSyntheticSource(gen)
	b.SetBytes(2 * src.StepBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunSession(context.Background(), core.SessionConfig{
			PEs: 4, Source: src, Mode: backend.Overlapped, Transport: core.TransportLocal,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// newLoopbackListener opens an ephemeral TCP listener on the loopback
// interface for transport benchmarks.
func newLoopbackListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// BenchmarkX1_QoS runs the section 5 QoS / bandwidth-reservation study.
func BenchmarkX1_QoS(b *testing.B) {
	var res *core.X1Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunX1()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	if shared := res.Row(core.QoSShared); shared != nil {
		b.ReportMetric(shared.BackgroundMbps, "noQoS-bg-Mbps")
	}
	if reserved := res.Row(core.QoSReserved); reserved != nil {
		b.ReportMetric(reserved.BackgroundMbps, "QoS-bg-Mbps")
		b.ReportMetric(reserved.VisapultMbps, "QoS-vis-Mbps")
	}
}

// BenchmarkDPSSCompression is the wire-level-compression ablation (section 5
// future work): the same sparse volume read with and without DEFLATE between
// the block servers and the client.
func BenchmarkDPSSCompression(b *testing.B) {
	sparse := volume.MustNew(64, 32, 32)
	for z := 8; z < 16; z++ {
		for y := 8; y < 16; y++ {
			for x := 16; x < 48; x++ {
				sparse.Set(x, y, z, float32(x)/64)
			}
		}
	}
	data := sparse.Marshal()
	cluster, err := dpss.StartCluster(dpss.ClusterConfig{Servers: 2, DisksPerServer: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	loader := cluster.NewClient()
	if _, err := cluster.LoadBytes(loader, "zbench", data, dpss.DefaultBlockSize); err != nil {
		b.Fatal(err)
	}
	loader.Close()

	run := func(b *testing.B, client *dpss.Client) {
		f, err := client.Open("zbench")
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, len(data))
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(buf, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := client.Stats()
		if st.BytesRead > 0 {
			b.ReportMetric(float64(st.WireBytes)/float64(st.BytesRead)*100, "wire-%-of-raw")
		}
	}
	b.Run("plain", func(b *testing.B) {
		client := cluster.NewClient()
		defer client.Close()
		run(b, client)
	})
	b.Run("deflate", func(b *testing.B) {
		client := cluster.NewClient(dpss.WithClientCompression(6))
		defer client.Close()
		run(b, client)
	})
}

// BenchmarkOverlapImplementations compares the threaded overlapped back end
// (shared buffers, the paper's choice) with the MPI-style process-pair
// alternative (per-frame copy, the design Appendix B rejects).
func BenchmarkOverlapImplementations(b *testing.B) {
	vols := make([]*volume.Volume, 3)
	for i := range vols {
		v := volume.MustNew(64, 64, 32)
		v.Fill(float32(i+1) / 4)
		vols[i] = v
	}
	src, err := backend.NewMemorySource(vols...)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []backend.Mode{backend.Overlapped, backend.OverlappedProcessPair} {
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(3 * vols[0].SizeBytes())
			var copyCost float64
			for i := 0; i < b.N; i++ {
				be, err := backend.New(backend.Config{
					PEs: 1, Source: src, Mode: mode, Sinks: []backend.FrameSink{&backend.NullSink{}},
				})
				if err != nil {
					b.Fatal(err)
				}
				rs, err := be.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				copyCost = float64(rs.MeanCopy().Microseconds())
			}
			b.ReportMetric(copyCost, "copy-us/frame")
		})
	}
}

// BenchmarkTransferModel measures the closed-form campaign model (it is
// effectively free; the benchmark documents that no hidden cost exists).
func BenchmarkTransferModel(b *testing.B) {
	nton := netsim.NewPath("NTON", netsim.NTON)
	cm := transfer.CampaignModel{Frame: transfer.FrameSpec{Bytes: 160 << 20}, Path: nton, Timesteps: 265}
	for i := 0; i < b.N; i++ {
		_ = cm.SerialTotal()
		_ = cm.OverlappedTotal()
		_ = cm.DatasetTransferTime()
	}
}

// ---------------------------------------------------------------------------
// Frame cache and coalescing benchmarks. These drive the facade Manager the
// way visapultd does, so the numbers bound what the daemon's replay cache and
// submission coalescing buy end to end.

// benchSpec is the content every cache/coalesce benchmark renders: small
// enough to keep iterations fast, large enough that skipping the raycaster
// is visible.
func benchSpec() visapult.RunSpec {
	return visapult.RunSpec{
		Source: visapult.SourceSpec{Kind: "combustion", NX: 32, NY: 24, NZ: 24, Timesteps: 3, Seed: 42},
		PEs:    2, Mode: "overlapped",
	}
}

func benchRun(b *testing.B, m *visapult.Manager, name string) *visapult.Result {
	b.Helper()
	if err := m.CreateSpec(name, benchSpec()); err != nil {
		b.Fatal(err)
	}
	if err := m.Start(name); err != nil {
		b.Fatal(err)
	}
	res, err := m.Wait(context.Background(), name)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Remove(name); err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFrameCache contrasts a cold render (cache flushed every iteration)
// with a warm replay of the same content served entirely from the
// slab-texture cache.
func BenchmarkFrameCache(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		m := visapult.NewManager(2)
		defer m.Close()
		m.SetFrameCacheCapacity(256 << 20)
		for i := 0; i < b.N; i++ {
			m.FlushFrameCache()
			benchRun(b, m, fmt.Sprintf("cold-%d", i))
		}
		st := m.FrameCacheStats()
		if st.Hits != 0 {
			b.Fatalf("cold path hit the cache: %+v", st)
		}
	})
	b.Run("hit", func(b *testing.B) {
		m := visapult.NewManager(2)
		defer m.Close()
		m.SetFrameCacheCapacity(256 << 20)
		benchRun(b, m, "warmup") // populate the cache once
		base := m.FrameCacheStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchRun(b, m, fmt.Sprintf("hit-%d", i))
		}
		b.StopTimer()
		st := m.FrameCacheStats()
		if st.Hits == base.Hits || st.Misses != base.Misses {
			b.Fatalf("hit path re-rendered: before %+v after %+v", base, st)
		}
		hitRate := float64(st.Hits-base.Hits) / float64(b.N)
		b.ReportMetric(hitRate, "cache-hits/op")
	})
}

// BenchmarkCoalescedSubmit measures N identical concurrent submissions
// resolving through run coalescing: one render, N-1 followers riding it.
func BenchmarkCoalescedSubmit(b *testing.B) {
	const fanIn = 4
	m := visapult.NewManager(2)
	defer m.Close()
	for i := 0; i < b.N; i++ {
		names := make([]string, fanIn)
		for j := range names {
			names[j] = fmt.Sprintf("co-%d-%d", i, j)
			if err := m.CreateSpec(names[j], benchSpec()); err != nil {
				b.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if err := m.Start(name); err != nil {
					b.Error(err)
					return
				}
				if _, err := m.Wait(context.Background(), name); err != nil {
					b.Error(err)
				}
			}(name)
		}
		wg.Wait()
		coalesced := 0
		for _, name := range names {
			st, err := m.Status(name)
			if err != nil {
				b.Fatal(err)
			}
			if len(st.Worker) > 10 && st.Worker[:10] == "coalesced:" {
				coalesced++
			}
			if err := m.Remove(name); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(coalesced), "coalesced/submit")
	}
}

// measureFrames benchmarks fn as a batch of frames per b.N iteration and
// reports true per-frame figures, overriding the built-in ns/op, B/op and
// allocs/op. CI runs the suite with -benchtime=1x, where a single measured
// call would charge one-time costs (loopback buffer growth, pool warm-up) to
// the only iteration; batching amortises them so the reported numbers match
// the wire's steady state. All dispatch-wire variants go through this helper
// so the v1/v2 comparison is like for like.
func measureFrames(b *testing.B, frames int, bytesPerFrame int64, fn func()) {
	b.Helper()
	for i := 0; i < frames; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < frames; j++ {
			fn()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(frames)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/op")
	if bytesPerFrame > 0 {
		b.ReportMetric(float64(bytesPerFrame)*n/b.Elapsed().Seconds()/1e6, "MB/s")
	}
}

// BenchmarkDispatchWire compares the scheduler's binary dispatch wire with a
// newline-delimited JSON encoding of the same messages (the retired v1 wire,
// kept here as the baseline) on their hot paths: the per-frame metric reply,
// and a 256 KB slab-texture delivery. JSON textures ride base64 inside a
// string; the binary wire is the length-prefixed framing of internal/wire
// with pooled encode buffers and vectored writes — its steady state
// allocates (almost) nothing beyond the dispatcher-side texture copy.
func BenchmarkDispatchWire(b *testing.B) {
	fm := visapult.FrameMetric{Frame: 3, PE: 1, BytesLoaded: 1 << 20, BytesSent: 1 << 18}
	// v1Reply mirrors the retired JSON wire's reply envelope for one frame
	// metric.
	type v1Reply struct {
		Frame *visapult.FrameMetric `json:"frame,omitempty"`
	}

	b.Run("metric/v1-json", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		dec := json.NewDecoder(&buf)
		roundtrip := func() {
			if err := enc.Encode(v1Reply{Frame: &fm}); err != nil {
				b.Fatal(err)
			}
			var out v1Reply
			if err := dec.Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
		measureFrames(b, 64, 0, roundtrip)
	})

	b.Run("metric/v2-binary", func(b *testing.B) {
		var buf bytes.Buffer
		c := wire.NewDispatchConn(&buf, &buf)
		df := wire.DispatchFrame{Frame: fm.Frame, PE: fm.PE, BytesLoaded: fm.BytesLoaded, BytesSent: fm.BytesSent}
		roundtrip := func() {
			eb := wire.GetDispatchBuf()
			*eb = df.Append(*eb)
			err := c.WriteFrame(wire.DFrame, *eb)
			wire.PutDispatchBuf(eb)
			if err != nil {
				b.Fatal(err)
			}
			_, payload, err := c.ReadFrame()
			if err != nil {
				b.Fatal(err)
			}
			var out wire.DispatchFrame
			if err := out.Decode(payload); err != nil {
				b.Fatal(err)
			}
		}
		measureFrames(b, 64, 0, roundtrip)
	})

	// A 256 KB RGBA slab texture (256x256), as the worker streams it back
	// for dispatcher-side frame-cache seeding.
	light := &wire.LightPayload{
		Frame: 1, PE: 0, SlabIndex: 0, SlabCount: 2, Axis: volume.AxisZ,
		TexWidth: 256, TexHeight: 256, BytesPerPixel: 4,
		Width: 256, Height: 256, Depth: 16, HeavyBytes: 256 * 256 * 4,
	}
	heavy := &wire.HeavyPayload{Frame: 1, PE: 0, TexWidth: 256, TexHeight: 256, Texture: make([]byte, 256*256*4)}
	for i := range heavy.Texture {
		heavy.Texture[i] = byte(i)
	}

	b.Run("slab256k/v1-json", func(b *testing.B) {
		// How a slab would ride a JSON wire: the texture base64-encoded
		// inside a JSON string (encoding/json's []byte representation).
		type v1Slab struct {
			Light   *wire.LightPayload `json:"light"`
			Texture []byte             `json:"texture"`
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		dec := json.NewDecoder(&buf)
		roundtrip := func() {
			if err := enc.Encode(v1Slab{Light: light, Texture: heavy.Texture}); err != nil {
				b.Fatal(err)
			}
			var out v1Slab
			if err := dec.Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
		measureFrames(b, 32, int64(len(heavy.Texture)), roundtrip)
	})

	// The v2 wire itself: pooled header encode, vectored write, and the
	// zero-copy decode whose texture aliases the read buffer. This is the
	// per-frame protocol cost — zero steady-state allocations.
	b.Run("slab256k/v2-binary", func(b *testing.B) {
		var buf bytes.Buffer
		c := wire.NewDispatchConn(&buf, &buf)
		var outLight wire.LightPayload
		var outHeavy wire.HeavyPayload
		roundtrip := func() {
			eb := wire.GetDispatchBuf()
			hdr, err := wire.AppendDispatchSlabHeader(*eb, light, heavy)
			if err != nil {
				b.Fatal(err)
			}
			*eb = hdr
			err = c.WriteFrame(wire.DSlab, *eb, heavy.Texture)
			wire.PutDispatchBuf(eb)
			if err != nil {
				b.Fatal(err)
			}
			_, payload, err := c.ReadFrame()
			if err != nil {
				b.Fatal(err)
			}
			if err := wire.DecodeDispatchSlabInto(payload, &outLight, &outHeavy); err != nil {
				b.Fatal(err)
			}
		}
		measureFrames(b, 32, int64(len(heavy.Texture)), roundtrip)
	})

	// The same delivery when the dispatcher retains the slab for its frame
	// cache: DecodeDispatchSlab's ownership copy is the only extra cost.
	b.Run("slab256k/v2-binary-retained", func(b *testing.B) {
		var buf bytes.Buffer
		c := wire.NewDispatchConn(&buf, &buf)
		roundtrip := func() {
			eb := wire.GetDispatchBuf()
			hdr, err := wire.AppendDispatchSlabHeader(*eb, light, heavy)
			if err != nil {
				b.Fatal(err)
			}
			*eb = hdr
			err = c.WriteFrame(wire.DSlab, *eb, heavy.Texture)
			wire.PutDispatchBuf(eb)
			if err != nil {
				b.Fatal(err)
			}
			_, payload, err := c.ReadFrame()
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := wire.DecodeDispatchSlab(payload); err != nil {
				b.Fatal(err)
			}
		}
		measureFrames(b, 32, int64(len(heavy.Texture)), roundtrip)
	})
}
