// Command dpssctl is the administrative client for a running dpssd: it
// stages datasets into the cache, inspects the catalog, and measures read
// throughput the way the paper's DPSS numbers were measured. The fabric
// subcommands administer a whole federation of clusters at once.
//
// Usage:
//
//	dpssctl -master 127.0.0.1:9300 stat combustion.t0000
//	dpssctl -master 127.0.0.1:9300 load combustion 80x32x32 5
//	dpssctl -master 127.0.0.1:9300 bench combustion.t0000
//
//	dpssctl -clusters lbl=127.0.0.1:9300,anl=127.0.0.1:9310 fabric status
//	dpssctl -clusters lbl=...,anl=... -replication 2 fabric warm combustion 80x32x32 5
//	dpssctl -clusters lbl=...,anl=...,snl=... fabric repair
//	dpssctl -daemon http://127.0.0.1:9600 fabric status
//	dpssctl -daemon http://127.0.0.1:9600 fabric drain anl
//	dpssctl -daemon http://127.0.0.1:9600 fabric rebalance
//	dpssctl -daemon http://127.0.0.1:9600 fabric drain-empty anl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"visapult/pkg/visapult"
	"visapult/pkg/visapult/dpss"
)

func main() {
	masterAddr := flag.String("master", "127.0.0.1:9300", "DPSS master address")
	blockSize := flag.Int("block", dpss.DefaultBlockSize, "logical block size for new datasets")
	streams := flag.Int("streams", 4, "parallel reader goroutines for bench")
	clusters := flag.String("clusters", "", "federation members for fabric commands, name=master:port comma-separated")
	replication := flag.Int("replication", 2, "replicas per dataset for fabric commands")
	stripes := flag.Int("stripes", 0, "parallel striped connections per block server for fabric commands (0 = client default)")
	daemon := flag.String("daemon", "", "visapultd base URL; fabric commands then go through its /api/v1/dpss endpoints")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	if args[0] == "fabric" {
		if err := runFabric(*daemon, *clusters, *replication, *stripes, *blockSize, args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "dpssctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	client := dpss.NewClient(*masterAddr)
	defer client.Close()

	var err error
	switch args[0] {
	case "stat":
		err = runStat(client, args[1:])
	case "load":
		err = runLoad(client, *blockSize, args[1:])
	case "bench":
		err = runBench(client, *streams, args[1:])
	case "thumbnail":
		err = runThumbnail(client, args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpssctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dpssctl [-master addr] stat <dataset> | load <base> <NXxNYxNZ> <steps> | bench <dataset> | thumbnail <base> <NXxNYxNZ> <step> <out.ppm>
       dpssctl [-clusters name=addr,... | -daemon url] fabric status | warm <base> <NXxNYxNZ> <steps> | rebalance | repair | drain <cluster> | drain-empty <cluster> | undrain <cluster>`)
	os.Exit(2)
}

// parseClusters parses the -clusters flag value.
func parseClusters(v string) ([]dpss.FabricClusterSpec, error) {
	if v == "" {
		return nil, fmt.Errorf("fabric commands need -clusters name=master:port,... (or -daemon)")
	}
	var out []dpss.FabricClusterSpec
	for _, part := range strings.Split(v, ",") {
		name, master, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || master == "" {
			return nil, fmt.Errorf("bad cluster %q, want name=master:port", part)
		}
		out = append(out, dpss.FabricClusterSpec{Name: name, Master: master})
	}
	return out, nil
}

// runThumbnail exercises the offline visualization service of the paper's
// section 5: a preview image and catalog metadata produced next to the cache.
func runThumbnail(client *dpss.Client, args []string) error {
	if len(args) != 4 {
		return fmt.Errorf("thumbnail needs <base> <NXxNYxNZ> <step> <out.ppm>")
	}
	base := args[0]
	var nx, ny, nz int
	if _, err := fmt.Sscanf(args[1], "%dx%dx%d", &nx, &ny, &nz); err != nil {
		return fmt.Errorf("parsing dimensions %q: %w", args[1], err)
	}
	step, err := strconv.Atoi(args[2])
	if err != nil || step < 0 {
		return fmt.Errorf("invalid timestep %q", args[2])
	}
	img, meta, err := dpss.Thumbnail(context.Background(), client, base, nx, ny, nz, step, dpss.ThumbnailOptions{MaxDim: 64})
	if err != nil {
		return err
	}
	if err := visapult.WritePPM(args[3], img); err != nil {
		return err
	}
	fmt.Printf("thumbnail: wrote %s (%dx%d)\n", args[3], img.W, img.H)
	fmt.Printf("metadata : %s\n", meta)
	return nil
}

func runStat(client *dpss.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("stat needs a dataset name")
	}
	info, err := client.Stat(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("dataset    : %s\n", args[0])
	fmt.Printf("size       : %s\n", visapult.HumanBytes(info.Size))
	fmt.Printf("block size : %d bytes\n", info.BlockSize)
	fmt.Printf("blocks     : %d\n", info.NumBlocks())
	return nil
}

func runLoad(client *dpss.Client, blockSize int, args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("load needs <base> <NXxNYxNZ> <steps>")
	}
	base := args[0]
	var nx, ny, nz int
	if _, err := fmt.Sscanf(args[1], "%dx%dx%d", &nx, &ny, &nz); err != nil {
		return fmt.Errorf("parsing dimensions %q: %w", args[1], err)
	}
	steps, err := strconv.Atoi(args[2])
	if err != nil || steps < 1 {
		return fmt.Errorf("invalid step count %q", args[2])
	}
	stepBytes, writeTime, err := dpss.StageCombustion(client, base, nx, ny, nz, steps, blockSize, 2000)
	if err != nil {
		return err
	}
	total := stepBytes * int64(steps)
	fmt.Printf("loaded %d timesteps of %s: %s written in %v (%.0f Mbps)\n", steps, base,
		visapult.HumanBytes(total), writeTime.Round(time.Millisecond), visapult.Mbps(total, writeTime))
	return nil
}

func runBench(client *dpss.Client, streams int, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("bench needs a dataset name")
	}
	name := args[0]
	info, err := client.Stat(name)
	if err != nil {
		return err
	}
	if streams < 1 {
		streams = 1
	}
	f, err := client.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()

	chunk := info.Size / int64(streams)
	errCh := make(chan error, streams)
	start := time.Now()
	for i := 0; i < streams; i++ {
		off := int64(i) * chunk
		size := chunk
		if i == streams-1 {
			size = info.Size - off
		}
		go func(off, size int64) {
			buf := make([]byte, size)
			_, err := f.ReadAt(buf, off)
			errCh <- err
		}(off, size)
	}
	for i := 0; i < streams; i++ {
		if err := <-errCh; err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("read %s in %v with %d streams: %.0f Mbps (%.1f MB/s)\n",
		visapult.HumanBytes(info.Size), elapsed.Round(time.Millisecond), streams,
		visapult.Mbps(info.Size, elapsed), visapult.MBps(info.Size, elapsed))
	cs := client.Stats()
	fmt.Printf("client: %d block reads (%s) over %d server connections\n",
		cs.Reads, visapult.HumanBytes(cs.BytesRead), cs.Servers)
	return nil
}
