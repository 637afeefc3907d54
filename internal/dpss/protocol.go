// Package dpss reimplements the Distributed Parallel Storage System the
// paper uses as its wide-area network data cache (section 3.5 and [1]).
//
// The DPSS is a block server: datasets too large for local disks are staged
// into the cache, and applications read arbitrary logical blocks over the
// network through a Unix-like client API (dpssOpen / dpssRead / dpssLSeek /
// dpssClose). Parallelism exists at three levels, all reproduced here:
//
//   - disk level: each block server stripes its blocks over several disks;
//   - server level: a dataset's logical blocks are striped round-robin over
//     all block servers, so a single client read fans out to every server;
//   - network level: the client library keeps one connection (and one
//     goroutine) per server, so transfers proceed in parallel, which is the
//     property the Visapult back end's parallel data loading exploits.
//
// A Master keeps the dataset catalog (logical-to-physical block mapping,
// access control, load balancing across servers); BlockServers store and
// serve the blocks; Client implements the application API. All components
// speak a small length-prefixed binary protocol over TCP and can be shaped
// with netsim to emulate WAN conditions.
package dpss

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// DefaultBlockSize is the logical block size used when a dataset does not
// specify one (64 KiB, the same order as the original DPSS).
const DefaultBlockSize = 64 << 10

// Message types exchanged between clients, the master and block servers.
const (
	// Client -> master.
	msgOpen     = byte(1) // open a dataset: payload = dataset name
	msgCreate   = byte(2) // create a dataset: payload = name + size + block size
	msgStat     = byte(3) // dataset metadata request
	msgRegister = byte(4) // block server announces itself: payload = its address
	msgList     = byte(5) // catalog listing: response = count + dataset names
	msgRemove   = byte(6) // drop a dataset from the catalog: payload = name (idempotent)

	// Client/loader -> block server, lock-step. (12 is msgReadBlockZ, the
	// compressed read; see compress.go. Uncompressed reads are sequenced;
	// see readv.go.)
	msgWriteBlock  = byte(11) // payload = dataset name + logical block id + data
	msgDropDataset = byte(13) // evict a dataset's blocks: payload = dataset name; response = evicted count

	// Responses.
	msgOK    = byte(20)
	msgError = byte(21)
)

// Protocol errors.
var (
	ErrUnknownDataset = errors.New("dpss: unknown dataset")
	ErrDatasetExists  = errors.New("dpss: dataset already exists")
	ErrUnknownBlock   = errors.New("dpss: unknown block")
	ErrAccessDenied   = errors.New("dpss: access denied")
	ErrProtocol       = errors.New("dpss: protocol error")
)

// maxFrame bounds a single protocol frame (1 GiB) to protect against
// corrupted length prefixes.
const maxFrame = 1 << 30

// writeFrame writes a [type][len][payload] frame.
func writeFrame(w io.Writer, msgType byte, payload []byte) error {
	hdr := make([]byte, 5)
	hdr[0] = msgType
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one [type][len][payload] frame.
func readFrame(r io.Reader) (msgType byte, payload []byte, err error) {
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes", ErrProtocol, n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// encoder/decoder helpers for composite payloads.

type encoder struct{ buf []byte }

func (e *encoder) str(s string) *encoder {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(s)))
	e.buf = append(e.buf, l[:]...)
	e.buf = append(e.buf, s...)
	return e
}

func (e *encoder) u64(v uint64) *encoder {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

func (e *encoder) u32(v uint32) *encoder {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

func (e *encoder) bytes(p []byte) *encoder {
	e.u32(uint32(len(p)))
	e.buf = append(e.buf, p...)
	return e
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if d.off+int(n) > len(d.buf) {
		d.err = ErrProtocol
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = ErrProtocol
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// block decodes a logical block id. Ids are non-negative: anything else is
// a protocol error, so a hostile id can never index a disk.
func (d *decoder) block() int64 {
	v := int64(d.u64())
	if v < 0 && d.err == nil {
		d.err = fmt.Errorf("%w: negative block id %d", ErrProtocol, v)
	}
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.err = ErrProtocol
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if d.off+int(n) > len(d.buf) {
		d.err = ErrProtocol
		return nil
	}
	p := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

// DatasetInfo is the catalog entry the master returns on open/stat.
type DatasetInfo struct {
	Name      string
	Size      int64
	BlockSize int
	// Servers lists the block-server addresses, in stripe order: logical
	// block i lives on Servers[i % len(Servers)].
	Servers []string
}

// NumBlocks returns the number of logical blocks in the dataset.
func (d DatasetInfo) NumBlocks() int64 {
	if d.BlockSize <= 0 {
		return 0
	}
	return (d.Size + int64(d.BlockSize) - 1) / int64(d.BlockSize)
}

// ServerFor returns the block server address that stores logical block id.
func (d DatasetInfo) ServerFor(block int64) string {
	if len(d.Servers) == 0 {
		return ""
	}
	return d.Servers[int(block%int64(len(d.Servers)))]
}

// BlockLen returns the length of logical block id (the last block may be
// short).
func (d DatasetInfo) BlockLen(block int64) int {
	if block < 0 || block >= d.NumBlocks() {
		return 0
	}
	start := block * int64(d.BlockSize)
	remain := d.Size - start
	if remain >= int64(d.BlockSize) {
		return d.BlockSize
	}
	return int(remain)
}

func encodeDatasetInfo(info DatasetInfo) []byte {
	e := &encoder{}
	e.str(info.Name).u64(uint64(info.Size)).u32(uint32(info.BlockSize)).u32(uint32(len(info.Servers)))
	for _, s := range info.Servers {
		e.str(s)
	}
	return e.buf
}

func decodeDatasetInfo(p []byte) (DatasetInfo, error) {
	d := &decoder{buf: p}
	info := DatasetInfo{
		Name:      d.str(),
		Size:      int64(d.u64()),
		BlockSize: int(d.u32()),
	}
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		info.Servers = append(info.Servers, d.str())
	}
	if d.err != nil {
		return DatasetInfo{}, d.err
	}
	return info, nil
}
