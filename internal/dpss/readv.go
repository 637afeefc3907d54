package dpss

import (
	"fmt"
	"io"
)

// The striped, pipelined read path.
//
// The paper's DPSS client keeps several parallel TCP streams per block server
// and pipelines block requests over them so the WAN pipe stays full. Every
// read request carries a client-chosen sequence number, the server answers
// out of order as its disks allow, and a vectored read (msgReadv) batches
// many small (block, offset, length) extents into one exchange so the
// general row-by-row region case costs a handful of frames instead of one
// round-trip per row. Message numbers 10 and 14 (the retired lock-step block
// read and version probe) are answered with msgError and must not be reused.
const (
	// Client -> block server.
	msgRead2 = byte(15) // payload = seq (u32) + dataset name + logical block id
	msgReadv = byte(16) // payload = seq (u32) + dataset name + extent count + extents

	// Block server -> client. Both carry the request's seq first.
	msgOK2    = byte(22) // payload = seq (u32) + data
	msgError2 = byte(23) // payload = seq (u32) + error string
)

// Vectored-read bounds. A msgReadv request may carry at most MaxReadvExtents
// extents and its response at most maxReadvBytes of data, so one exchange
// never turns into an unbounded frame; the client splits larger extent lists
// into several batches and the server rejects requests over the limits.
const (
	// MaxReadvExtents bounds the extent count in one msgReadv exchange.
	MaxReadvExtents = 4096
	// maxReadvBytes bounds the data volume returned by one msgReadv exchange.
	maxReadvBytes = 4 << 20
)

// Extent names one contiguous byte range of a dataset for a vectored
// scatter read: Len bytes starting at absolute dataset offset Off, delivered
// into Dst (whose length must equal Len). The client splits extents at block
// boundaries internally; callers work in flat dataset offsets.
type Extent struct {
	Off int64
	Len int
	Dst []byte
}

// blockExtent is one extent after splitting at block boundaries: a range
// within a single logical block, scattered into dst.
type blockExtent struct {
	block int64
	off   uint32 // offset within the block
	n     uint32 // length
	dst   []byte // nil on the server side
}

// appendReadvRequest encodes a msgReadv payload (after the seq prefix the
// stripe layer adds): dataset name, extent count, then (block u64, off u32,
// len u32) per extent.
func appendReadvRequest(buf []byte, dataset string, exts []blockExtent) []byte {
	e := &encoder{buf: buf}
	e.str(dataset).u32(uint32(len(exts)))
	for _, x := range exts {
		e.u64(uint64(x.block)).u32(x.off).u32(x.n)
	}
	return e.buf
}

// decodeReadvRequest decodes a msgReadv payload (seq already stripped). It is
// deliberately paranoid — the extent count, per-extent lengths and the total
// response volume are all bounded before any allocation, so a hostile frame
// cannot balloon server memory. Exercised directly by FuzzReadvRequestDecode.
func decodeReadvRequest(payload []byte) (dataset string, exts []blockExtent, err error) {
	d := &decoder{buf: payload}
	dataset = d.str()
	n := d.u32()
	if d.err != nil {
		return "", nil, d.err
	}
	if n == 0 {
		return "", nil, fmt.Errorf("%w: empty readv", ErrProtocol)
	}
	if n > MaxReadvExtents {
		return "", nil, fmt.Errorf("%w: readv of %d extents (max %d)", ErrProtocol, n, MaxReadvExtents)
	}
	if remain := len(payload) - d.off; remain != int(n)*16 {
		return "", nil, fmt.Errorf("%w: readv of %d extents carries %d trailing bytes", ErrProtocol, n, remain)
	}
	exts = make([]blockExtent, 0, n)
	var total uint64
	for i := uint32(0); i < n; i++ {
		x := blockExtent{block: int64(d.u64()), off: d.u32(), n: d.u32()}
		if x.block < 0 || x.n == 0 || uint64(x.off)+uint64(x.n) > maxFrame {
			return "", nil, fmt.Errorf("%w: bad extent (block %d, off %d, len %d)", ErrProtocol, x.block, x.off, x.n)
		}
		total += uint64(x.n)
		exts = append(exts, x)
	}
	if d.err != nil {
		return "", nil, d.err
	}
	// A single extent may exceed the batch byte bound (a dataset with blocks
	// larger than maxReadvBytes still needs whole-block reads); anything the
	// client could have split further must respect it.
	if total > maxReadvBytes && n > 1 {
		return "", nil, fmt.Errorf("%w: readv response of %d bytes (max %d)", ErrProtocol, total, maxReadvBytes)
	}
	return dataset, exts, nil
}

// scatterExtents reads exactly the concatenated extent data from r directly
// into each destination slice — the zero-copy half of ReadvScatter: block
// bytes go from the socket straight into the caller's buffers with no
// intermediate per-block allocation. refresh, when non-nil, is invoked before
// each extent so the stripe reader can extend its read deadline on long
// responses. Exercised directly by FuzzReadvResponseScatter.
func scatterExtents(r io.Reader, dsts [][]byte, refresh func()) error {
	for _, dst := range dsts {
		if refresh != nil {
			refresh()
		}
		if _, err := io.ReadFull(r, dst); err != nil {
			return err
		}
	}
	return nil
}

// splitExtents validates caller extents against the dataset layout and splits
// them at block boundaries, appending per-server batches to per. Extents may
// be in any order and may overlap; each must lie within [0, info.Size) and
// carry a Dst of exactly Len bytes.
func splitExtents(info DatasetInfo, exts []Extent, per map[string][]blockExtent) error {
	blockSize := int64(info.BlockSize)
	if blockSize <= 0 {
		return fmt.Errorf("dpss: dataset %s has no block size", info.Name)
	}
	for _, x := range exts {
		if x.Len == 0 {
			continue
		}
		if x.Off < 0 || x.Len < 0 || x.Off+int64(x.Len) > info.Size {
			return fmt.Errorf("dpss: extent [%d,+%d) outside dataset %s (%d bytes)", x.Off, x.Len, info.Name, info.Size)
		}
		if len(x.Dst) != x.Len {
			return fmt.Errorf("dpss: extent [%d,+%d) has %d-byte destination", x.Off, x.Len, len(x.Dst))
		}
		off, dst := x.Off, x.Dst
		for len(dst) > 0 {
			block := off / blockSize
			inBlock := off - block*blockSize
			n := blockSize - inBlock
			if n > int64(len(dst)) {
				n = int64(len(dst))
			}
			addr := info.ServerFor(block)
			per[addr] = append(per[addr], blockExtent{
				block: block, off: uint32(inBlock), n: uint32(n), dst: dst[:n],
			})
			off += n
			dst = dst[n:]
		}
	}
	return nil
}
