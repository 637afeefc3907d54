package core

import (
	"context"
	"fmt"
	"time"

	"visapult/internal/backend"
	"visapult/internal/datagen"
	"visapult/internal/dpss"
	"visapult/internal/ibr"
	"visapult/internal/netsim"
	"visapult/internal/platform"
	"visapult/internal/render"
	"visapult/internal/transfer"
	"visapult/internal/volume"
)

// bg is the experiment suite's context root. The E1-E12 drivers are the
// harness-facing "main" of the evaluation: they run complete campaigns on a
// virtual clock, finishing in milliseconds of real time, so there is no
// caller cancellation to plumb through and nothing long-lived to detach.
func bg() context.Context {
	return context.Background() //vislint:ignore ctxbackground experiment drivers are the suite's context roots; campaigns finish in milliseconds on a virtual clock
}

// This file maps every quantitative claim of the paper's evaluation (Figures
// 10-17 and the numbers embedded in sections 2, 4 and 5) onto a runnable
// experiment. Experiments lists them by identifier (E1-E12); the visharness
// command (README's command table) and bench_test.go call these functions.

// ---------------------------------------------------------------------------
// E1: DPSS throughput versus server count, LAN versus WAN (section 2.0/3.5).

// E1Row is one configuration of the DPSS throughput model.
type E1Row struct {
	Servers        int
	DisksPerServer int
	LANMbps        float64
	WANMbps        float64
	LANBottleneck  string
	WANBottleneck  string
}

// E1Result reproduces the paper's DPSS headline numbers: 980 Mbps across a
// LAN, 570 Mbps across a WAN, and >150 MB/s from a four-server, one-terabyte
// configuration.
type E1Result struct {
	Rows []E1Row
	// FourServerMBps is the aggregate delivery of the paper's four-server
	// configuration in megabytes per second.
	FourServerMBps float64
}

// RunE1 evaluates the DPSS throughput model over a server-count sweep.
func RunE1() *E1Result {
	res := &E1Result{}
	for servers := 1; servers <= 8; servers *= 2 {
		lan := dpss.PaperLANModel().WithServers(servers)
		wan := dpss.PaperWANModel().WithServers(servers)
		res.Rows = append(res.Rows, E1Row{
			Servers:        servers,
			DisksPerServer: lan.DisksPerServer,
			LANMbps:        lan.AggregateMbps(),
			WANMbps:        wan.AggregateMbps(),
			LANBottleneck:  lan.Bottleneck(),
			WANBottleneck:  wan.Bottleneck(),
		})
	}
	// The paper's ">150 MB/s from a four-server DPSS" is the server-side
	// delivery capability (15-20 parallel disks), before any single client's
	// NIC becomes the limit.
	res.FourServerMBps = dpss.PaperLANModel().DiskAggregateMBps()
	return res
}

// Table renders the result.
func (r *E1Result) Table() *Table {
	t := &Table{
		ID:      "E1",
		Title:   "DPSS aggregate throughput vs servers (paper: 980 Mbps LAN, 570 Mbps WAN, >150 MB/s from 4 servers)",
		Columns: []string{"servers", "disks/server", "LAN", "LAN bottleneck", "WAN", "WAN bottleneck"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Servers), fmt.Sprint(row.DisksPerServer),
			fmtMbps(row.LANMbps), row.LANBottleneck, fmtMbps(row.WANMbps), row.WANBottleneck)
	}
	t.AddNote("four-server aggregate: %.0f MB/s (paper: over 150 MB/s)", r.FourServerMBps)
	return t
}

// ---------------------------------------------------------------------------
// E2: SC99 topology comparison (section 4.1).

// E2Result holds the two SC99 transfer-rate measurements.
type E2Result struct {
	CPlantMbps    float64
	ShowFloorMbps float64
}

// RunE2 simulates the two SC99 data paths.
func RunE2() (*E2Result, error) {
	cp, err := SC99CPlantCampaign().Run(bg())
	if err != nil {
		return nil, err
	}
	sf, err := SC99ShowFloorCampaign().Run(bg())
	if err != nil {
		return nil, err
	}
	return &E2Result{CPlantMbps: cp.LoadMbps(), ShowFloorMbps: sf.LoadMbps()}, nil
}

// Table renders the result.
func (r *E2Result) Table() *Table {
	t := &Table{
		ID:      "E2",
		Title:   "SC99 sustained transfer rates by topology",
		Columns: []string{"path", "measured (sim)", "paper"},
	}
	t.AddRow("LBL DPSS -> CPlant (NTON)", fmtMbps(r.CPlantMbps), "250 Mbps")
	t.AddRow("LBL DPSS -> show floor (NTON+SciNet)", fmtMbps(r.ShowFloorMbps), "150 Mbps")
	return t
}

// ---------------------------------------------------------------------------
// E3: the April 2000 "first light" profile (Figure 10, section 4.2).

// E3Result reproduces the Figure 10 numbers: ~3 s to load 160 MB over NTON,
// ~433 Mbps, ~70% utilization of the OC-12, and 8-9 s of rendering on four
// CPlant processors.
type E3Result struct {
	LoadSeconds   float64
	LoadMbps      float64
	Utilization   float64
	RenderSeconds float64
	Result        *CampaignResult
}

// RunE3 simulates the first-light campaign.
func RunE3() (*E3Result, error) {
	res, err := FirstLightCampaign().Run(bg())
	if err != nil {
		return nil, err
	}
	spans := res.FrameLoadSpans()
	var mean time.Duration
	for _, s := range spans {
		mean += s
	}
	mean /= time.Duration(len(spans))
	return &E3Result{
		LoadSeconds:   mean.Seconds(),
		LoadMbps:      res.LoadMbps(),
		Utilization:   res.Utilization(),
		RenderSeconds: res.MeanRender().Seconds(),
		Result:        res,
	}, nil
}

// Table renders the result.
func (r *E3Result) Table() *Table {
	t := &Table{
		ID:      "E3",
		Title:   "First-light campaign, serial back end on 4 CPlant nodes over NTON (Figure 10)",
		Columns: []string{"quantity", "measured (sim)", "paper"},
	}
	t.AddRow("160 MB load time", fmtSeconds(r.LoadSeconds), "~3 s")
	t.AddRow("achieved bandwidth", fmtMbps(r.LoadMbps), "~433 Mbps")
	t.AddRow("OC-12 utilization", fmt.Sprintf("%.0f%%", r.Utilization*100), "~70%")
	t.AddRow("render time (4 PEs)", fmtSeconds(r.RenderSeconds), "8-9 s")
	return t
}

// ---------------------------------------------------------------------------
// E4: serial versus overlapped on the Sun E4500 over gigabit LAN
// (Figures 12-13, section 4.3).

// E4Result holds both runs plus the analytic model's prediction.
type E4Result struct {
	SerialTotal      time.Duration
	OverlappedTotal  time.Duration
	MeanLoad         time.Duration
	MeanRender       time.Duration
	MeasuredSpeedup  float64
	PredictedSpeedup float64
	Serial           *CampaignResult
	Overlapped       *CampaignResult
}

// RunE4 simulates the serial and overlapped E4500 runs.
func RunE4() (*E4Result, error) {
	serial, err := E4500LANCampaign(backend.Serial).Run(bg())
	if err != nil {
		return nil, err
	}
	over, err := E4500LANCampaign(backend.Overlapped).Run(bg())
	if err != nil {
		return nil, err
	}
	r := &E4Result{
		SerialTotal:     serial.Total,
		OverlappedTotal: over.Total,
		MeanLoad:        serial.MeanLoad(),
		MeanRender:      serial.MeanRender(),
		Serial:          serial,
		Overlapped:      over,
	}
	if over.Total > 0 {
		r.MeasuredSpeedup = float64(serial.Total) / float64(over.Total)
	}
	r.PredictedSpeedup = transfer.Speedup(serial.Campaign.Timesteps, r.MeanLoad, r.MeanRender)
	return r, nil
}

// Table renders the result.
func (r *E4Result) Table() *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Serial vs overlapped back end, Sun E4500 over gigabit LAN, 10 timesteps (Figures 12-13)",
		Columns: []string{"quantity", "measured (sim)", "paper"},
	}
	t.AddRow("per-frame load L", fmtSeconds(r.MeanLoad.Seconds()), "~15 s")
	t.AddRow("per-frame render R", fmtSeconds(r.MeanRender.Seconds()), "~12 s")
	t.AddRow("serial total", fmtSeconds(r.SerialTotal.Seconds()), "~265 s")
	t.AddRow("overlapped total", fmtSeconds(r.OverlappedTotal.Seconds()), "~169 s")
	t.AddRow("speedup", fmt.Sprintf("%.2fx", r.MeasuredSpeedup),
		fmt.Sprintf("%.2fx (model %.2fx)", 265.0/169.0, r.PredictedSpeedup))
	return t
}

// ---------------------------------------------------------------------------
// E5: CPlant over NTON, node scaling and overlap contention
// (Figures 14-15, section 4.4.1).

// E5Row is one CPlant configuration.
type E5Row struct {
	Nodes      int
	Mode       backend.Mode
	MeanLoad   time.Duration
	MeanRender time.Duration
	LoadCV     float64
	Total      time.Duration
}

// E5Result holds the node-scaling and overlap-contention measurements.
type E5Result struct {
	Rows []E5Row
}

// RunE5 simulates the CPlant/NTON configurations: four and eight nodes,
// serial and overlapped.
func RunE5() (*E5Result, error) {
	res := &E5Result{}
	for _, nodes := range []int{4, 8} {
		for _, mode := range []backend.Mode{backend.Serial, backend.Overlapped} {
			cr, err := CPlantNTONCampaign(nodes, mode).Run(bg())
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, E5Row{
				Nodes:      nodes,
				Mode:       mode,
				MeanLoad:   cr.MeanLoad(),
				MeanRender: cr.MeanRender(),
				LoadCV:     cr.LoadCV(),
				Total:      cr.Total,
			})
		}
	}
	return res, nil
}

// Row returns the row for the given configuration, or nil.
func (r *E5Result) Row(nodes int, mode backend.Mode) *E5Row {
	for i := range r.Rows {
		if r.Rows[i].Nodes == nodes && r.Rows[i].Mode == mode {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table renders the result.
func (r *E5Result) Table() *Table {
	t := &Table{
		ID:      "E5",
		Title:   "CPlant over NTON: node scaling and overlapped-load contention (Figures 14-15)",
		Columns: []string{"nodes", "mode", "mean load", "mean render", "load CV", "total"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Nodes), row.Mode.String(),
			fmtSeconds(row.MeanLoad.Seconds()), fmtSeconds(row.MeanRender.Seconds()),
			fmt.Sprintf("%.2f", row.LoadCV), fmtSeconds(row.Total.Seconds()))
	}
	t.AddNote("paper: load time flat from 4 to 8 nodes (network saturated); render halves;")
	t.AddNote("overlapped loads on single-CPU nodes are longer and more variable (Figure 15).")
	return t
}

// ---------------------------------------------------------------------------
// E6: the ANL Onyx2 SMP over ESnet (Figures 16-17, section 4.4.2).

// E6Result holds the serial and overlapped SMP runs.
type E6Result struct {
	SerialLoad      time.Duration
	SerialMbps      float64
	SerialRender    time.Duration
	OverlappedLoad  time.Duration
	OverlappedCV    float64
	SerialTotal     time.Duration
	OverlappedTotal time.Duration
}

// RunE6 simulates the ANL/ESnet runs.
func RunE6() (*E6Result, error) {
	serial, err := ANLESnetCampaign(backend.Serial).Run(bg())
	if err != nil {
		return nil, err
	}
	over, err := ANLESnetCampaign(backend.Overlapped).Run(bg())
	if err != nil {
		return nil, err
	}
	return &E6Result{
		SerialLoad:      serial.MeanLoad(),
		SerialMbps:      serial.LoadMbps(),
		SerialRender:    serial.MeanRender(),
		OverlappedLoad:  over.MeanLoad(),
		OverlappedCV:    over.LoadCV(),
		SerialTotal:     serial.Total,
		OverlappedTotal: over.Total,
	}, nil
}

// Table renders the result.
func (r *E6Result) Table() *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Onyx2 SMP at ANL over ESnet, serial vs overlapped (Figures 16-17)",
		Columns: []string{"quantity", "measured (sim)", "paper"},
	}
	t.AddRow("160 MB load time (serial)", fmtSeconds(r.SerialLoad.Seconds()), "~10 s")
	t.AddRow("achieved bandwidth", fmtMbps(r.SerialMbps), "~128 Mbps (iperf ~100)")
	t.AddRow("render time (8 PEs)", fmtSeconds(r.SerialRender.Seconds()), "< load (load-dominated)")
	t.AddRow("overlapped load time", fmtSeconds(r.OverlappedLoad.Seconds()), "slightly above serial")
	t.AddRow("overlapped load CV", fmt.Sprintf("%.2f", r.OverlappedCV), "small (no CPU contention)")
	t.AddRow("serial total", fmtSeconds(r.SerialTotal.Seconds()), "-")
	t.AddRow("overlapped total", fmtSeconds(r.OverlappedTotal.Seconds()), "-")
	return t
}

// ---------------------------------------------------------------------------
// E7: the overlapped-pipeline analytic model (section 4.3).

// E7Row compares the analytic speedup with a simulated pipeline for one
// load-to-render ratio.
type E7Row struct {
	Timesteps     int
	LoadSeconds   float64
	RenderSeconds float64
	Analytic      float64
	Simulated     float64
	Ideal         float64
}

// E7Result is the model-validation sweep.
type E7Result struct {
	Rows []E7Row
}

// RunE7 sweeps the L/R ratio and the timestep count, comparing Ts/To from
// the closed-form model with a simulated single-PE pipeline.
func RunE7() (*E7Result, error) {
	res := &E7Result{}
	ratios := []float64{0.25, 0.5, 1, 2, 4}
	for _, n := range []int{5, 10, 50} {
		for _, ratio := range ratios {
			renderSec := 10.0
			loadSec := renderSec * ratio
			// Build a campaign whose single PE loads loadSec worth of data
			// and renders for renderSec.
			frameBytes := int64(loadSec * 100e6 / 8) // over a 100 Mbps link
			plat := platform.Platform{
				Name: "model-validation", Kind: platform.SMP, Nodes: 1, CPUsPerNode: 1,
				RenderSecPerMVoxel: renderSec, // 1 Mvoxel volume => renderSec per frame
				NIC:                netsim.GigE,
			}
			serialCR, err := (Campaign{
				Name: "e7-serial", Platform: plat, PEs: 1, Mode: backend.Serial, Timesteps: n,
				FrameBytes: frameBytes, VolumeDims: [3]int{100, 100, 100},
				DataPath: netsim.NewPath("model-link", netsim.Link{Name: "100Mbps", Bandwidth: 100e6, MTU: 1500}),
			}).Run(bg())
			if err != nil {
				return nil, err
			}
			overCR, err := (Campaign{
				Name: "e7-overlapped", Platform: plat, PEs: 1, Mode: backend.Overlapped, Timesteps: n,
				FrameBytes: frameBytes, VolumeDims: [3]int{100, 100, 100},
				DataPath: netsim.NewPath("model-link", netsim.Link{Name: "100Mbps", Bandwidth: 100e6, MTU: 1500}),
			}).Run(bg())
			if err != nil {
				return nil, err
			}
			simSpeedup := float64(serialCR.Total) / float64(overCR.Total)
			l := time.Duration(loadSec * float64(time.Second))
			r := time.Duration(renderSec * float64(time.Second))
			res.Rows = append(res.Rows, E7Row{
				Timesteps:     n,
				LoadSeconds:   loadSec,
				RenderSeconds: renderSec,
				Analytic:      transfer.Speedup(n, l, r),
				Simulated:     simSpeedup,
				Ideal:         transfer.IdealSpeedup(n),
			})
		}
	}
	return res, nil
}

// Table renders the result.
func (r *E7Result) Table() *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Overlap model validation: Ts=N(L+R), To=N*max(L,R)+min(L,R), ideal 2N/(N+1)",
		Columns: []string{"N", "L", "R", "analytic speedup", "simulated speedup", "ideal (L=R)"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Timesteps), fmtSeconds(row.LoadSeconds), fmtSeconds(row.RenderSeconds),
			fmt.Sprintf("%.3f", row.Analytic), fmt.Sprintf("%.3f", row.Simulated),
			fmt.Sprintf("%.3f", row.Ideal))
	}
	return t
}

// ---------------------------------------------------------------------------
// E8: IBRAVR off-axis artifacts and the axis-switching remedy
// (Figure 6, section 3.3).

// E8Result is the artifact-error sweep.
type E8Result struct {
	Points []ibr.ConePoint
	// ConeDegrees is the largest angle whose error stays below the
	// artifact threshold, the paper's "cone of about sixteen degrees".
	ConeDegrees float64
}

// RunE8 measures IBRAVR compositing error versus rotation angle on a
// synthetic combustion volume, with and without axis switching.
func RunE8() (*E8Result, error) {
	gen := datagen.NewCombustion(datagen.CombustionConfig{NX: 48, NY: 48, NZ: 48, Timesteps: 1, Seed: 7})
	v := gen.Generate(0)
	tf := render.DefaultCombustionTF()
	angles := []float64{0, 5, 10, 16, 25, 35, 45, 60, 75, 90}
	points, err := ibr.ArtifactSweep(v, tf, 8, angles)
	if err != nil {
		return nil, err
	}
	// The cone criterion follows the ibr package's convention: the error must
	// stay below a fraction (0.35) of the worst-case 45-degree error.
	cone, err := ibr.ArtifactFreeCone(v, tf, 8, 0.35, 45)
	if err != nil {
		return nil, err
	}
	return &E8Result{Points: points, ConeDegrees: cone}, nil
}

// Table renders the result.
func (r *E8Result) Table() *Table {
	t := &Table{
		ID:      "E8",
		Title:   "IBRAVR off-axis artifact error vs rotation angle (Figure 6)",
		Columns: []string{"angle (deg)", "RMSE (fixed axis)", "RMSE (axis switching)"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.AngleDegrees),
			fmt.Sprintf("%.4f", p.RMSE), fmt.Sprintf("%.4f", p.WithSwitchingRMSE))
	}
	t.AddNote("artifact-free cone: %.0f degrees (paper: ~16 degrees)", r.ConeDegrees)
	return t
}

// ---------------------------------------------------------------------------
// E9: terascale projections (section 5).

// E9Result carries the dataset-transfer projections and the bandwidth needed
// for the five-timesteps-per-second target.
type E9Result struct {
	NTONTransfer      time.Duration
	ESnetTransfer     time.Duration
	NTONPerStep       time.Duration
	ESnetPerStep      time.Duration
	RequiredMbps      float64
	MultipleOfOC12    float64
	OC192SufficientBy float64
}

// RunE9 evaluates the section 5 projections.
func RunE9() *E9Result {
	nton := netsim.NewPath("NTON", netsim.NTON)
	esnet := netsim.NewPath("ESnet", netsim.ESnet)
	cmNTON := transfer.CampaignModel{
		Frame: transfer.FrameSpec{Bytes: paperFrameBytes}, Path: nton, Timesteps: 265,
	}
	cmESnet := transfer.CampaignModel{
		Frame: transfer.FrameSpec{Bytes: paperFrameBytes}, Path: esnet, Timesteps: 265,
	}
	required := transfer.RequiredBandwidth(paperFrameBytes, TerascaleTargetRate)
	return &E9Result{
		NTONTransfer:      cmNTON.DatasetTransferTime(),
		ESnetTransfer:     cmESnet.DatasetTransferTime(),
		NTONPerStep:       cmNTON.LoadTime(),
		ESnetPerStep:      cmESnet.LoadTime(),
		RequiredMbps:      required / 1e6,
		MultipleOfOC12:    transfer.RequiredBandwidthMultiple(paperFrameBytes, TerascaleTargetRate, nton),
		OC192SufficientBy: netsim.OC192.Bandwidth / required,
	}
}

// Table renders the result.
func (r *E9Result) Table() *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Terascale projections for the 265-step, 41.4 GB dataset (section 5)",
		Columns: []string{"quantity", "measured (model)", "paper"},
	}
	t.AddRow("full dataset over NTON", r.NTONTransfer.Round(time.Second).String(), "~8 minutes")
	t.AddRow("full dataset over ESnet", r.ESnetTransfer.Round(time.Second).String(), "~44 minutes")
	t.AddRow("new timestep over NTON", r.NTONPerStep.Round(100*time.Millisecond).String(), "every 3 s")
	t.AddRow("new timestep over ESnet", r.ESnetPerStep.Round(100*time.Millisecond).String(), "every 10 s")
	t.AddRow("bandwidth for 5 steps/s", fmtMbps(r.RequiredMbps), "~fifteen times OC-12 (~= OC-192)")
	t.AddRow("multiple of OC-12 needed", fmt.Sprintf("%.1fx", r.MultipleOfOC12), "~15x")
	t.AddRow("OC-192 headroom", fmt.Sprintf("%.2fx", r.OC192SufficientBy), ">= 1x")
	t.AddNote("the ESnet rows use the link's nominal 100 Mbps; the paper's 44-minute figure assumes the")
	t.AddNote("128 Mbps the parallel loader actually achieved (which would give ~43 minutes here too)")
	return t
}

// ---------------------------------------------------------------------------
// E10: pipeline traffic asymmetry (sections 3.4 and 4.1).

// E10Row is the traffic breakdown for one volume resolution.
type E10Row struct {
	Dims        [3]int
	SourceBytes int64
	ViewerBytes int64
	Ratio       float64
}

// E10Result shows that back-end-to-viewer traffic is O(n^2) while
// source-to-back-end traffic is O(n^3).
type E10Result struct {
	Rows []E10Row
}

// RunE10 runs real in-process sessions at increasing resolution and measures
// the bytes crossing each pipeline hop.
func RunE10() (*E10Result, error) {
	res := &E10Result{}
	for _, n := range []int{16, 24, 32, 48} {
		dims := [3]int{n, n, n}
		gen := datagen.NewCombustion(datagen.CombustionConfig{NX: n, NY: n, NZ: n, Timesteps: 1, Seed: 10})
		src := backend.NewSyntheticSource(gen)
		sr, err := RunSession(bg(), SessionConfig{
			PEs: 4, Source: src, Mode: backend.Serial, Transport: TransportLocal,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, E10Row{
			Dims:        dims,
			SourceBytes: sr.Backend.BytesIn,
			ViewerBytes: sr.Backend.BytesOut,
			Ratio:       sr.TrafficRatio(),
		})
	}
	return res, nil
}

// Table renders the result.
func (r *E10Result) Table() *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Pipeline traffic: source->back end is O(n^3), back end->viewer is O(n^2)",
		Columns: []string{"volume", "source->backend bytes", "backend->viewer bytes", "reduction"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%dx%dx%d", row.Dims[0], row.Dims[1], row.Dims[2]),
			fmt.Sprint(row.SourceBytes), fmt.Sprint(row.ViewerBytes),
			fmt.Sprintf("%.1fx", row.Ratio))
	}
	t.AddNote("the reduction factor grows roughly linearly with resolution, as O(n^3)/O(n^2) predicts")
	return t
}

// ---------------------------------------------------------------------------
// E11: platform contention and MTU ablation (sections 4.4.1, 4.4.2, 5).

// E11Row is one platform/MTU configuration of the overlapped back end.
type E11Row struct {
	Label           string
	OverlapPenalty  float64
	MeanLoad        time.Duration
	LoadCV          float64
	Total           time.Duration
	SpeedupVsSerial float64
}

// E11Result is the contention ablation.
type E11Result struct {
	Rows []E11Row
}

// RunE11 compares the overlapped back end on platforms with different
// loader/renderer contention characteristics, including the jumbo-frame
// variant the paper discusses.
func RunE11() (*E11Result, error) {
	res := &E11Result{}
	configs := []struct {
		label string
		plat  platform.Platform
	}{
		{"CPlant (1 CPU/node, 1500 B MTU)", platform.CPlant.WithNodes(8)},
		{"CPlant (1 CPU/node, jumbo frames)", platform.CPlant.WithNodes(8).WithJumboFrames()},
		{"hypothetical 2-CPU cluster nodes", func() platform.Platform {
			p := platform.CPlant.WithNodes(8)
			p.Name = "CPlant (2 CPUs/node)"
			p.CPUsPerNode = 2
			return p
		}()},
		{"Onyx2 SMP (shared NIC)", platform.Onyx2.WithNodes(8)},
	}
	for _, cfg := range configs {
		campaign := CPlantNTONCampaign(8, backend.Overlapped)
		campaign.Platform = cfg.plat
		over, err := campaign.Run(bg())
		if err != nil {
			return nil, err
		}
		serialCampaign := campaign
		serialCampaign.Mode = backend.Serial
		serial, err := serialCampaign.Run(bg())
		if err != nil {
			return nil, err
		}
		speedup := 0.0
		if over.Total > 0 {
			speedup = float64(serial.Total) / float64(over.Total)
		}
		res.Rows = append(res.Rows, E11Row{
			Label:           cfg.label,
			OverlapPenalty:  cfg.plat.EffectiveOverlapPenalty(),
			MeanLoad:        over.MeanLoad(),
			LoadCV:          over.LoadCV(),
			Total:           over.Total,
			SpeedupVsSerial: speedup,
		})
	}
	return res, nil
}

// Table renders the result.
func (r *E11Result) Table() *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Overlap benefit vs platform contention and MTU (ablation of sections 4.4.1-4.4.2)",
		Columns: []string{"platform", "load penalty", "mean load", "load CV", "overlapped total", "speedup vs serial"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Label, fmt.Sprintf("%.2fx", row.OverlapPenalty),
			fmtSeconds(row.MeanLoad.Seconds()), fmt.Sprintf("%.2f", row.LoadCV),
			fmtSeconds(row.Total.Seconds()), fmt.Sprintf("%.2fx", row.SpeedupVsSerial))
	}
	return t
}

// ---------------------------------------------------------------------------
// E12: domain decomposition comparison (Figure 4, section 3.2).

// E12Row is one decomposition strategy evaluated on the paper grid.
type E12Row struct {
	Strategy        string
	Regions         int
	Imbalance       float64
	PerPEBytes      int64
	OrderedCompose  bool
	RenderImbalance float64
}

// E12Result compares slab, shaft and block decompositions.
type E12Result struct {
	Rows []E12Row
}

// RunE12 evaluates the three object-order decompositions of Figure 4 on the
// paper's 640x256x256 grid (for the byte accounting) and on a reduced grid
// (for measured render-work imbalance).
func RunE12() (*E12Result, error) {
	const pes = 8
	nx, ny, nz := paperDims[0], paperDims[1], paperDims[2]
	gen := datagen.NewCombustion(datagen.CombustionConfig{NX: 64, NY: 32, NZ: 32, Timesteps: 1, Seed: 12})
	small := gen.Generate(0)
	tf := render.DefaultCombustionTF()

	eval := func(strategy string, regions []volume.Region, smallRegions []volume.Region) E12Row {
		row := E12Row{
			Strategy:       strategy,
			Regions:        len(regions),
			Imbalance:      volume.LoadImbalance(regions),
			OrderedCompose: true, // all object-order decompositions need ordered compositing
		}
		if len(regions) > 0 {
			row.PerPEBytes = regions[0].Bytes()
		}
		// Measured render cost imbalance on the reduced grid.
		var times []float64
		for _, r := range smallRegions {
			start := time.Now()
			render.RenderSlab(small, r, tf, volume.AxisZ)
			times = append(times, time.Since(start).Seconds())
		}
		var maxT, sumT float64
		for _, x := range times {
			if x > maxT {
				maxT = x
			}
			sumT += x
		}
		if len(times) > 0 && sumT > 0 {
			row.RenderImbalance = maxT / (sumT / float64(len(times)))
		}
		return row
	}

	res := &E12Result{}
	res.Rows = append(res.Rows,
		eval("slab (Z)", volume.Slabs(nx, ny, nz, volume.AxisZ, pes),
			volume.Slabs(small.NX, small.NY, small.NZ, volume.AxisZ, pes)),
		eval("shaft (YxZ)", volume.Shafts(nx, ny, nz, volume.AxisX, 2, 4),
			volume.Shafts(small.NX, small.NY, small.NZ, volume.AxisX, 2, 4)),
		eval("block (2x2x2)", volume.Blocks(nx, ny, nz, 2, 2, 2),
			volume.Blocks(small.NX, small.NY, small.NZ, 2, 2, 2)),
	)
	return res, nil
}

// Table renders the result.
func (r *E12Result) Table() *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Slab, shaft and block decompositions of the 640x256x256 grid across 8 PEs (Figure 4)",
		Columns: []string{"strategy", "regions", "voxel imbalance", "bytes/PE", "ordered composite", "render imbalance"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Strategy, fmt.Sprint(row.Regions), fmt.Sprintf("%.3f", row.Imbalance),
			fmt.Sprint(row.PerPEBytes), fmt.Sprint(row.OrderedCompose),
			fmt.Sprintf("%.2f", row.RenderImbalance))
	}
	t.AddNote("IBRAVR uses the slab decomposition: equal-size slabs, one texture per PE, depth-ordered compositing")
	return t
}

// ---------------------------------------------------------------------------

// Experiment couples an identifier with a runner, for the harness.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// Experiments lists every experiment of the evaluation, E1 through E12.
func Experiments() []Experiment {
	return []Experiment{
		{"e1", "DPSS throughput", func() (*Table, error) { return RunE1().Table(), nil }},
		{"e2", "SC99 topologies", func() (*Table, error) { r, err := RunE2(); return tableOrNil(r, err) }},
		{"e3", "First-light campaign", func() (*Table, error) { r, err := RunE3(); return tableOrNil(r, err) }},
		{"e4", "Serial vs overlapped (E4500/LAN)", func() (*Table, error) { r, err := RunE4(); return tableOrNil(r, err) }},
		{"e5", "CPlant/NTON scaling", func() (*Table, error) { r, err := RunE5(); return tableOrNil(r, err) }},
		{"e6", "Onyx2/ESnet", func() (*Table, error) { r, err := RunE6(); return tableOrNil(r, err) }},
		{"e7", "Overlap model validation", func() (*Table, error) { r, err := RunE7(); return tableOrNil(r, err) }},
		{"e8", "IBRAVR artifacts", func() (*Table, error) { r, err := RunE8(); return tableOrNil(r, err) }},
		{"e9", "Terascale projections", func() (*Table, error) { return RunE9().Table(), nil }},
		{"e10", "Pipeline traffic", func() (*Table, error) { r, err := RunE10(); return tableOrNil(r, err) }},
		{"e11", "Contention/MTU ablation", func() (*Table, error) { r, err := RunE11(); return tableOrNil(r, err) }},
		{"e12", "Decomposition comparison", func() (*Table, error) { r, err := RunE12(); return tableOrNil(r, err) }},
	}
}

// tabler is any experiment result that can render itself.
type tabler interface{ Table() *Table }

func tableOrNil[T tabler](r T, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Table(), nil
}
