package dpss

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"

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

// scatterCompressed serves a vectored read for a compression-enabled client:
// each block the extents touch is requested once, DEFLATE-compressed, over its
// server's stripe pool, every block before the first reply is awaited; the
// replies are then inflated in issue order and the extents copied out.
func (c *Client) scatterCompressed(ctx context.Context, info DatasetInfo, exts []Extent) error {
	per := perServerPool.Get().(map[string][]blockExtent)
	defer putPerServer(per)
	if err := splitExtents(info, exts, per); err != nil {
		return err
	}
	byBlock := make(map[int64][]blockExtent)
	var order []int64
	for _, list := range per {
		for _, x := range list {
			if _, ok := byBlock[x.block]; !ok {
				order = append(order, x.block)
			}
			byBlock[x.block] = append(byBlock[x.block], x)
		}
	}
	var e encoder
	return pipelineCalls(ctx, len(order), func(i int) (*stripeCall, error) {
		e.buf = e.buf[:0]
		e.str(info.Name).u64(uint64(order[i])).u32(uint32(c.compress))
		return c.call(ctx, info.ServerFor(order[i]), msgReadBlockZ, e.buf)
	}, func(i int, wire []byte) error {
		block := order[i]
		fr := flate.NewReader(bytes.NewReader(wire))
		data, err := io.ReadAll(fr)
		if err == nil {
			err = fr.Close()
		}
		if err != nil {
			return fmt.Errorf("dpss: inflating block %d of %s: %w", block, info.Name, err)
		}
		for _, x := range byBlock[block] {
			if int(x.off)+int(x.n) > len(data) {
				return fmt.Errorf("%w: block %d returned %d bytes, extent wants [%d,+%d)",
					ErrProtocol, block, len(data), x.off, x.n)
			}
			copy(x.dst, data[x.off:int(x.off)+int(x.n)])
		}
		c.mu.Lock()
		c.bytesRead += int64(len(data))
		c.compressedRaw += int64(len(data))
		c.wireBytes += int64(len(wire))
		c.reads++
		c.compressedReads++
		c.mu.Unlock()
		return nil
	})
}

// serveReadZ answers a compressed read: the block is read from the owning
// disk, DEFLATE-compressed at the client-requested level, and sent.
func (p *connPipeline) serveReadZ(seq uint32, body []byte) {
	s := p.s
	d := &decoder{buf: body}
	dataset := d.str()
	block := d.block()
	level := int(d.u32())
	if d.err != nil {
		p.replyErr2(seq, d.err)
		return
	}
	if level < 1 || level > 9 {
		level = flate.DefaultCompression
	}
	data, err := s.diskFor(block).ReadBlock(dataset, block)
	if err != nil {
		p.replyErr2(seq, err)
		return
	}
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err == nil {
		_, err = fw.Write(data)
	}
	if err == nil {
		err = fw.Close()
	}
	if err != nil {
		p.replyErr2(seq, fmt.Errorf("dpss: compressing block: %w", err))
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
	p.reply2(msgOK2, seq, buf.Bytes())
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
