package dpss

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"net"

	"visapult/internal/netlogger"
)

// Wire-level compression is the first of the paper's proposed DPSS
// extensions (section 5): "'wire level' compression would benefit a wide
// array of applications ... and under application control". It is implemented
// here as an optional, client-driven request type: a client configured with
// WithClientCompression asks the block servers to DEFLATE each block before
// it crosses the network and inflates it on arrival. The application controls
// the trade-off by choosing the compression level (or leaving it off), and
// the client's statistics expose the achieved on-the-wire reduction so a
// session can adapt the level to the network path.
//
// Lossy compression (the paper's other suggestion) is intentionally not
// implemented at the block layer: blocks are opaque bytes here, and lossy
// schemes only make sense with knowledge of the voxel encoding, which lives
// above the cache.

// Compressed-read protocol messages (extensions of the base protocol).
const (
	// msgReadBlockZ requests one block compressed with DEFLATE; the payload
	// is dataset name, logical block id, and the requested compression level.
	msgReadBlockZ = byte(12)
)

// WithClientCompression makes the client request DEFLATE-compressed blocks at
// the given level (1 = fastest, 9 = smallest; flate.DefaultCompression for a
// balanced setting). A level of zero or less disables compression.
func WithClientCompression(level int) ClientOption {
	return func(c *Client) {
		if level > 9 {
			level = 9
		}
		c.compress = level
	}
}

// readBlockCompressed fetches one block through the compressed-read path and
// inflates it.
func (c *Client) readBlockCompressed(ctx context.Context, info DatasetInfo, block int64) ([]byte, error) {
	e := &encoder{}
	e.str(info.Name).u64(uint64(block)).u32(uint32(c.compress))
	wire, err := c.exchange(ctx, info.ServerFor(block), msgReadBlockZ, e.buf)
	if err != nil {
		return nil, err
	}
	fr := flate.NewReader(bytes.NewReader(wire))
	data, err := io.ReadAll(fr)
	if err != nil {
		return nil, fmt.Errorf("dpss: inflating block %d of %s: %w", block, info.Name, err)
	}
	if err := fr.Close(); err != nil {
		return nil, fmt.Errorf("dpss: inflating block %d of %s: %w", block, info.Name, err)
	}
	c.mu.Lock()
	c.bytesRead += int64(len(data))
	c.compressedRaw += int64(len(data))
	c.wireBytes += int64(len(wire))
	c.reads++
	c.compressedReads++
	c.mu.Unlock()
	return data, nil
}

// handleReadCompressed serves a msgReadBlockZ request: the block is read from
// the owning disk, DEFLATE-compressed at the client-requested level, and sent.
func (s *BlockServer) handleReadCompressed(out net.Conn, payload []byte) {
	d := &decoder{buf: payload}
	dataset := d.str()
	block := d.block()
	level := int(d.u32())
	if d.err != nil {
		s.replyError(out, d.err)
		return
	}
	if level < 1 || level > 9 {
		level = flate.DefaultCompression
	}
	data, err := s.diskFor(block).ReadBlock(dataset, block)
	if err != nil {
		s.replyError(out, err)
		return
	}
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		s.replyError(out, fmt.Errorf("dpss: compressing block: %w", err))
		return
	}
	if _, err := fw.Write(data); err != nil {
		s.replyError(out, fmt.Errorf("dpss: compressing block: %w", err))
		return
	}
	if err := fw.Close(); err != nil {
		s.replyError(out, fmt.Errorf("dpss: compressing block: %w", err))
		return
	}
	if s.logger != nil {
		s.logger.Log("DPSS_BLOCK_READ_Z", netlogger.Str("DATASET", dataset),
			netlogger.Int64("BLOCK", block),
			netlogger.Int64(netlogger.FieldBytes, int64(buf.Len())),
			netlogger.Int64("RAW_BYTES", int64(len(data))))
	}
	s.mu.Lock()
	s.served += int64(buf.Len())
	s.mu.Unlock()
	reply(out, msgOK, buf.Bytes())
}

// CompressionRatio returns raw bytes delivered over bytes that crossed the
// wire for this client's compressed reads (1.0 when compression is off or
// nothing compressed yet).
func (c *Client) CompressionRatio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wireBytes == 0 || c.compressedReads == 0 {
		return 1
	}
	return float64(c.compressedRaw) / float64(c.wireBytes)
}
