package dpss

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"visapult/internal/netsim"
	"visapult/internal/stats"
	"visapult/internal/volume"
)

// --- protocol -------------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello dpss")
	if err := writeFrame(&buf, msgWriteBlock, payload); err != nil {
		t.Fatal(err)
	}
	msgType, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != msgWriteBlock || !bytes.Equal(got, payload) {
		t.Errorf("round trip = %d %q", msgType, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgOK, nil); err != nil {
		t.Fatal(err)
	}
	msgType, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != msgOK || len(got) != 0 {
		t.Error("empty frame round trip")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, msgOK, []byte("data"))
	raw := buf.Bytes()
	if _, _, err := readFrame(bytes.NewReader(raw[:3])); err == nil {
		t.Error("truncated header should fail")
	}
	if _, _, err := readFrame(bytes.NewReader(raw[:6])); err == nil {
		t.Error("truncated payload should fail")
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	hdr := []byte{msgOK, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversize frame error = %v", err)
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := &encoder{}
	e.str("dataset").u64(123456789).u32(4096).bytes([]byte{1, 2, 3})
	d := &decoder{buf: e.buf}
	if d.str() != "dataset" || d.u64() != 123456789 || d.u32() != 4096 {
		t.Error("scalar round trip")
	}
	if !bytes.Equal(d.bytes(), []byte{1, 2, 3}) {
		t.Error("bytes round trip")
	}
	if d.err != nil {
		t.Errorf("decoder error = %v", d.err)
	}
	// Reading past the end sets the error.
	d.u64()
	if d.err == nil {
		t.Error("overread should set error")
	}
}

func TestDatasetInfoEncodingRoundTrip(t *testing.T) {
	info := DatasetInfo{
		Name: "combustion.t0001", Size: 160 << 20, BlockSize: 64 << 10,
		Servers: []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001", "10.0.0.4:7001"},
	}
	got, err := decodeDatasetInfo(encodeDatasetInfo(info))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != info.Name || got.Size != info.Size || got.BlockSize != info.BlockSize {
		t.Errorf("round trip = %+v", got)
	}
	if len(got.Servers) != 4 || got.Servers[2] != "10.0.0.3:7001" {
		t.Errorf("servers = %v", got.Servers)
	}
	if _, err := decodeDatasetInfo([]byte{1, 2}); err == nil {
		t.Error("garbage should fail to decode")
	}
}

func TestDatasetInfoBlockMath(t *testing.T) {
	info := DatasetInfo{Name: "d", Size: 100, BlockSize: 32, Servers: []string{"a", "b", "c"}}
	if info.NumBlocks() != 4 {
		t.Errorf("blocks = %d", info.NumBlocks())
	}
	if info.BlockLen(0) != 32 || info.BlockLen(3) != 4 {
		t.Errorf("block lens = %d %d", info.BlockLen(0), info.BlockLen(3))
	}
	if info.BlockLen(4) != 0 || info.BlockLen(-1) != 0 {
		t.Error("out-of-range block len should be 0")
	}
	if info.ServerFor(0) != "a" || info.ServerFor(1) != "b" || info.ServerFor(3) != "a" {
		t.Error("round-robin striping wrong")
	}
	if (DatasetInfo{}).NumBlocks() != 0 {
		t.Error("zero block size should have 0 blocks")
	}
	if (DatasetInfo{}).ServerFor(0) != "" {
		t.Error("no servers should return empty address")
	}
}

func TestDatasetInfoStripingProperty(t *testing.T) {
	f := func(sizeRaw uint32, blockSizeRaw uint16, serverCount uint8) bool {
		size := int64(sizeRaw%10_000_000) + 1
		blockSize := int(blockSizeRaw%8192) + 1
		n := int(serverCount%8) + 1
		servers := make([]string, n)
		for i := range servers {
			servers[i] = string(rune('a' + i))
		}
		info := DatasetInfo{Name: "p", Size: size, BlockSize: blockSize, Servers: servers}
		// Sum of block lengths equals the dataset size, and every block maps
		// to a registered server.
		var total int64
		for b := int64(0); b < info.NumBlocks(); b++ {
			total += int64(info.BlockLen(b))
			if info.ServerFor(b) == "" {
				return false
			}
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// --- disk ------------------------------------------------------------------

func TestDiskReadWriteEvict(t *testing.T) {
	d := NewDisk()
	d.WriteBlock("ds", 0, []byte{1, 2, 3})
	d.WriteBlock("ds", 1, []byte{4})
	d.WriteBlock("other", 0, []byte{9})
	got, err := d.ReadBlock("ds", 0)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("read = %v %v", got, err)
	}
	// Mutating the returned slice must not corrupt the stored block.
	got[0] = 99
	again, _ := d.ReadBlock("ds", 0)
	if again[0] != 1 {
		t.Error("disk returned aliased storage")
	}
	if _, err := d.ReadBlock("ds", 7); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("missing block error = %v", err)
	}
	if !d.HasBlock("ds", 1) || d.HasBlock("ds", 2) {
		t.Error("HasBlock wrong")
	}
	if dropped := d.DropDataset("ds"); dropped != 2 {
		t.Errorf("dropped = %d", dropped)
	}
	if d.HasBlock("ds", 0) || !d.HasBlock("other", 0) {
		t.Error("drop should only evict the named dataset")
	}
	st := d.Stats()
	if st.Writes != 3 || st.Reads != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiskServiceModelDelays(t *testing.T) {
	d := NewDiskWithModel(1*stats.MB, 5*time.Millisecond) // 1 MB/s + 5ms seek
	data := make([]byte, 100<<10)                         // 100 KB -> ~100ms transfer
	start := time.Now()
	d.WriteBlock("ds", 0, data)
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("modelled write returned too quickly: %v", elapsed)
	}
}

// --- master ----------------------------------------------------------------

func TestMasterCatalog(t *testing.T) {
	m := NewMaster()
	if _, err := m.CreateDataset("x", 100, 0); err == nil {
		t.Error("create with no servers should fail")
	}
	m.RegisterServer("s1:1")
	m.RegisterServer("s2:1")
	m.RegisterServer("s1:1") // duplicate ignored
	if len(m.Servers()) != 2 {
		t.Errorf("servers = %v", m.Servers())
	}
	info, err := m.CreateDataset("x", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.BlockSize != DefaultBlockSize || len(info.Servers) != 2 {
		t.Errorf("info = %+v", info)
	}
	if _, err := m.CreateDataset("x", 50, 0); err == nil {
		t.Error("duplicate dataset should fail")
	}
	if _, err := m.CreateDataset("neg", -1, 0); err == nil {
		t.Error("negative size should fail")
	}
	if _, err := m.Lookup("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Error("unknown dataset lookup")
	}
	if got := m.Datasets(); len(got) != 1 || got[0] != "x" {
		t.Errorf("datasets = %v", got)
	}
	m.RemoveDataset("x")
	if len(m.Datasets()) != 0 {
		t.Error("remove failed")
	}
}

// --- end-to-end cluster -----------------------------------------------------

func startTestCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterLoadAndReadBack(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 3, DisksPerServer: 2})
	client := c.NewClient()
	defer client.Close()

	data := make([]byte, 300*1024+17) // deliberately not block aligned
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	info, err := c.LoadBytes(client, "testset", data, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumBlocks() != 10 {
		t.Errorf("blocks = %d", info.NumBlocks())
	}

	f, err := client.Open("testset")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(data)) {
		t.Errorf("size = %d", f.Size())
	}
	got := make([]byte, len(data))
	n, err := f.ReadAt(got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, equal=%v", n, bytes.Equal(got, data))
	}
	// Every server should have stored and served some blocks (striping).
	for i, s := range c.Servers {
		st := s.Stats()
		if st.BlocksStored == 0 {
			t.Errorf("server %d stored no blocks", i)
		}
		if st.BytesServed == 0 {
			t.Errorf("server %d served no bytes", i)
		}
	}
	if c.TotalBytesServed() < int64(len(data)) {
		t.Error("total served should cover the dataset")
	}
	cs := client.Stats()
	if cs.Servers != 3 || cs.BytesRead < int64(len(data)) {
		t.Errorf("client stats = %+v", cs)
	}
}

// TestClientRemoveEvictsCatalogAndBlocks covers the removal protocol the
// fabric's drain-to-empty relies on: Remove drops the master's catalog entry
// AND evicts the blocks from every stripe server, and removing a dataset the
// cluster never held is a harmless no-op.
func TestClientRemoveEvictsCatalogAndBlocks(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 2, DisksPerServer: 2})
	client := c.NewClient()
	defer client.Close()

	data := make([]byte, 96*1024)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := c.LoadBytes(client, "victim", data, 16<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadBytes(client, "survivor", data, 16<<10); err != nil {
		t.Fatal(err)
	}

	if err := client.Remove("victim"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := client.Stat("victim"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("Stat after Remove = %v, want ErrUnknownDataset", err)
	}
	// Only the survivor's blocks remain on the servers.
	want := int((int64(len(data)) + (16 << 10) - 1) / (16 << 10))
	total := 0
	for _, s := range c.Servers {
		total += s.Stats().BlocksStored
	}
	if total != want {
		t.Fatalf("servers store %d blocks after Remove, want %d (survivor only)", total, want)
	}
	// The survivor still reads back.
	f, err := client.Open("survivor")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("survivor corrupted by Remove of its neighbor")
	}
	// Idempotent: removing again (or a never-staged name) is a no-op.
	if err := client.Remove("victim"); err != nil {
		t.Fatalf("second Remove = %v, want nil", err)
	}
	if err := client.Remove("never.staged"); err != nil {
		t.Fatalf("Remove(never.staged) = %v, want nil", err)
	}
}

func TestClusterBlockLevelAccess(t *testing.T) {
	// The point of the DPSS over an archive: read a small piece of a large
	// dataset without transferring the whole thing.
	c := startTestCluster(t, ClusterConfig{Servers: 4, DisksPerServer: 2})
	client := c.NewClient()
	defer client.Close()

	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i % 253)
	}
	if _, err := c.LoadBytes(client, "big", data, 16<<10); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	servedBefore := c.TotalBytesServed()
	piece := make([]byte, 10_000)
	if _, err := f.ReadAt(piece, 500_000); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(piece, data[500_000:510_000]) {
		t.Error("partial read returned wrong bytes")
	}
	servedDelta := c.TotalBytesServed() - servedBefore
	if servedDelta >= int64(len(data))/2 {
		t.Errorf("block-level read transferred %d bytes; should be far less than the dataset", servedDelta)
	}
}

func TestFileReadSeekSemantics(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 2, DisksPerServer: 1})
	client := c.NewClient()
	defer client.Close()
	data := []byte("The Distributed Parallel Storage System is a data block server.")
	if _, err := c.LoadBytes(client, "text", data, 8); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open("text")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "The" {
		t.Errorf("first read = %q", buf)
	}
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != " Di" {
		t.Errorf("second read = %q", buf)
	}
	if pos, err := f.Seek(4, io.SeekStart); err != nil || pos != 4 {
		t.Fatalf("seek = %d %v", pos, err)
	}
	big := make([]byte, 11)
	if _, err := f.Read(big); err != nil {
		t.Fatal(err)
	}
	if string(big) != "Distributed" {
		t.Errorf("after seek = %q", big)
	}
	if pos, _ := f.Seek(-6, io.SeekEnd); pos != int64(len(data)-6) {
		t.Errorf("seek end = %d", pos)
	}
	tail, _ := io.ReadAll(f)
	if string(tail) != "erver." {
		t.Errorf("tail = %q", tail)
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Error("bad whence should fail")
	}
	if _, err := f.Seek(-100, io.SeekStart); err == nil {
		t.Error("negative offset should fail")
	}
	// Reads past EOF.
	if _, err := f.ReadAt(buf, f.Size()+10); err != io.EOF {
		t.Errorf("read past EOF = %v", err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Error("negative ReadAt offset should fail")
	}
	if err := f.Close(); err != nil {
		t.Error(err)
	}
}

func TestOpenUnknownDataset(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 1, DisksPerServer: 1})
	client := c.NewClient()
	defer client.Close()
	if _, err := client.Open("missing"); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("error = %v", err)
	}
}

func TestStatAndVolumeRoundTrip(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 2, DisksPerServer: 2})
	client := c.NewClient()
	defer client.Close()

	v := volume.MustNew(16, 8, 8)
	for i := range v.Data {
		v.Data[i] = float32(i)
	}
	if _, err := c.LoadVolume(client, TimestepDatasetName("combustion", 3), v, 4<<10); err != nil {
		t.Fatal(err)
	}
	info, err := client.Stat("combustion.t0003")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != volume.EncodedSize(16, 8, 8) {
		t.Errorf("size = %d", info.Size)
	}
	f, err := client.Open("combustion.t0003")
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, info.Size)
	if _, err := f.ReadAt(raw, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	got, err := volume.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(15, 7, 7) != v.At(15, 7, 7) {
		t.Error("volume round trip through DPSS corrupted data")
	}
}

func TestAccessControl(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 1, DisksPerServer: 1})
	client := c.NewClient()
	defer client.Close()
	if _, err := c.LoadBytes(client, "secret", []byte("data"), 4); err != nil {
		t.Fatal(err)
	}
	// Deny everyone (no loopback prefix matches "10.").
	c.Master.AllowClients("10.")
	denied := c.NewClient()
	defer denied.Close()
	if _, err := denied.Open("secret"); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("expected access denied, got %v", err)
	}
	// Allow loopback again.
	c.Master.AllowClients("127.0.0.1")
	allowed := c.NewClient()
	defer allowed.Close()
	if _, err := allowed.Open("secret"); err != nil {
		t.Errorf("loopback client should be allowed: %v", err)
	}
	if c.Master.Stats().Denials == 0 {
		t.Error("denial counter should have incremented")
	}
}

func TestLoadReader(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 2, DisksPerServer: 1})
	client := c.NewClient()
	defer client.Close()
	data := bytes.Repeat([]byte("0123456789"), 1000)
	info, err := c.LoadReader(client, "stream", bytes.NewReader(data), int64(len(data)), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) {
		t.Errorf("size = %d", info.Size)
	}
	f, _ := client.Open("stream")
	got := make([]byte, len(data))
	f.ReadAt(got, 0)
	if !bytes.Equal(got, data) {
		t.Error("stream load corrupted data")
	}
	// Short reader should fail cleanly.
	if _, err := c.LoadReader(client, "short", bytes.NewReader(data[:10]), 100, 16); err == nil {
		t.Error("short reader should fail")
	}
}

func TestShapedClusterThroughputIsLimited(t *testing.T) {
	// Emulate a WAN: all block servers behind a single shaper at ~16 MB/s.
	shaper := netsim.NewShaper(16*stats.MB, 256<<10)
	c := startTestCluster(t, ClusterConfig{Servers: 4, DisksPerServer: 2, ServerShaper: shaper})
	client := c.NewClient()
	defer client.Close()
	data := make([]byte, 4*stats.MB)
	if _, err := c.LoadBytes(client, "wan", data, 64<<10); err != nil {
		t.Fatal(err)
	}
	f, _ := client.Open("wan")
	buf := make([]byte, len(data))
	start := time.Now()
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	rate := stats.MBps(int64(len(data)), elapsed)
	if rate > 32 {
		t.Errorf("shaped DPSS delivered %.1f MB/s, want <= ~2x the 16 MB/s shaping rate", rate)
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("shaped read finished suspiciously fast: %v", elapsed)
	}
}

func TestWriteAtAlignment(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 1, DisksPerServer: 1})
	client := c.NewClient()
	defer client.Close()
	info, err := client.Create("w", 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	f := &File{client: client, info: info}
	if _, err := f.WriteAt([]byte("x"), 5); err == nil {
		t.Error("unaligned write should fail")
	}
}

// --- analytic model ---------------------------------------------------------

func TestPaperLANThroughput(t *testing.T) {
	m := PaperLANModel()
	mbps := m.AggregateMbps()
	// Paper: 980 Mbps across a LAN (a single gigabit client NIC at line rate).
	if mbps < 900 || mbps > 1000 {
		t.Errorf("LAN model = %.0f Mbps, paper reports 980", mbps)
	}
}

func TestPaperWANThroughput(t *testing.T) {
	m := PaperWANModel()
	mbps := m.AggregateMbps()
	// Paper: 570 Mbps across a WAN (an OC-12 path).
	if mbps < 450 || mbps > 622 {
		t.Errorf("WAN model = %.0f Mbps, paper reports 570", mbps)
	}
	if m.Bottleneck() != "client path" {
		t.Errorf("WAN bottleneck = %s", m.Bottleneck())
	}
}

func TestFourServerTerabyteDPSSDelivers150MBps(t *testing.T) {
	// Paper: "A four-server DPSS with a capacity of one Terabyte ... can thus
	// deliver throughput of over 150 megabytes per second by providing
	// parallel access to 15-20 disks."
	m := PaperLANModel()
	if m.Servers*m.DisksPerServer < 15 || m.Servers*m.DisksPerServer > 20 {
		t.Errorf("disk count = %d, want 15-20", m.Servers*m.DisksPerServer)
	}
	if m.DiskAggregateMBps() < 150 {
		t.Errorf("disk aggregate = %.0f MB/s, want > 150", m.DiskAggregateMBps())
	}
}

func TestThroughputScalesWithServers(t *testing.T) {
	base := PaperLANModel()
	// Make the client path wide so server count is the bottleneck.
	base.ClientPath = netsim.NewPath("wide", netsim.OC192)
	one := base.WithServers(1).AggregateMbps()
	two := base.WithServers(2).AggregateMbps()
	four := base.WithServers(4).AggregateMbps()
	if !(two > 1.8*one && four > 3.5*one) {
		t.Errorf("scaling broken: 1=%0.f 2=%0.f 4=%0.f Mbps", one, two, four)
	}
	if base.WithServers(0).Servers != 1 {
		t.Error("WithServers(0) should clamp to 1")
	}
}

func TestBottleneckIdentification(t *testing.T) {
	m := PaperLANModel()
	m.DiskMBps = 1 // starve the disks
	if m.Bottleneck() != "disks" {
		t.Errorf("bottleneck = %s", m.Bottleneck())
	}
	m = PaperLANModel()
	m.ServerNIC = netsim.Link{Name: "slow", Bandwidth: 10 * stats.Mega}
	if m.Bottleneck() != "server NICs" {
		t.Errorf("bottleneck = %s", m.Bottleneck())
	}
}
