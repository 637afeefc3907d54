package dpss

import (
	"context"
	"fmt"
	"sync"
)

// ReadvScatter reads every extent into its destination slice in one vectored
// pass: extents are split at block boundaries, grouped per block server,
// batched into msgReadv exchanges and pipelined over each server's stripe
// pool. The server streams each batch back in a single bounded write and the
// client scatters the bytes straight from the socket into the caller's
// buffers — no per-block allocation. A compression-enabled client instead
// fetches whole blocks over the lock-step compressed-read exchange.
//
// On error some destinations may hold partial data, but by the time the call
// returns no goroutine will write into any destination slice again, so
// callers may pool and reuse their buffers immediately.
func (f *File) ReadvScatter(ctx context.Context, exts []Extent) error {
	return f.client.readvScatter(ctx, f.info, exts)
}

// perServerPool recycles the per-call scatter plan (server address -> block
// extents) so steady-state vectored reads do not allocate per block.
var perServerPool = sync.Pool{
	New: func() any { return make(map[string][]blockExtent) },
}

func putPerServer(m map[string][]blockExtent) {
	for k, v := range m {
		for i := range v {
			v[i].dst = nil // drop references into caller buffers
		}
		m[k] = v[:0]
	}
	perServerPool.Put(m)
}

// dstsPool recycles the per-batch destination tables handed to the stripe
// layer.
var dstsPool = sync.Pool{
	New: func() any {
		s := make([][]byte, 0, 256)
		return &s
	},
}

// reqBufPool recycles msgReadv request encode buffers.
var reqBufPool = sync.Pool{
	New: func() any {
		s := make([]byte, 0, 1024)
		return &s
	},
}

func (c *Client) readvScatter(ctx context.Context, info DatasetInfo, exts []Extent) error {
	if len(exts) == 0 {
		return nil
	}
	if c.compress > 0 {
		return c.scatterCompressed(ctx, info, exts)
	}
	per := perServerPool.Get().(map[string][]blockExtent)
	defer putPerServer(per)
	if err := splitExtents(info, exts, per); err != nil {
		return err
	}
	if len(per) == 1 {
		for addr, list := range per {
			return c.scatterServer(ctx, info, addr, list)
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for addr, list := range per {
		if len(list) == 0 {
			continue
		}
		addr, list := addr, list
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.scatterServer(ctx, info, addr, list); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// scatterServer serves one server's share of a vectored read: it batches the
// extent list under the protocol's extent-count and byte bounds, stripes the
// batches round-robin over the server's pool, pipelines them all, then waits
// for every response. Batches already in flight are always waited for — even
// after an error — so the no-writes-after-return guarantee holds.
func (c *Client) scatterServer(ctx context.Context, info DatasetInfo, addr string, list []blockExtent) error {
	if len(list) == 0 {
		return nil
	}
	p, err := c.poolFor(addr)
	if err != nil {
		return err
	}
	type batch struct {
		call  *stripeCall
		dsts  *[][]byte
		bytes int64
		reads int64
	}
	reqBuf := reqBufPool.Get().(*[]byte)
	defer reqBufPool.Put(reqBuf)
	// Size batches so a region spreads over the whole stripe pool: one
	// maxReadvBytes batch would ride a single socket and leave the other
	// stripes idle, re-creating exactly the single-stream ceiling the
	// stripes exist to break. Aim for two batches per stripe (so each
	// socket also pipelines), bounded below so small reads do not shatter
	// into per-extent exchanges.
	total := 0
	for i := range list {
		total += int(list[i].n)
	}
	target := maxReadvBytes
	if n := len(p.stripes); n > 1 {
		const minBatch = 64 << 10
		t := total / (2 * n)
		if t < minBatch {
			t = minBatch
		}
		if t < target {
			target = t
		}
	}
	var (
		started  []batch
		firstErr error
	)
	for start := 0; start < len(list) && firstErr == nil; {
		end, size := start, 0
		for end < len(list) && end-start < MaxReadvExtents {
			if size+int(list[end].n) > target && end > start {
				break
			}
			size += int(list[end].n)
			end++
		}
		chunk := list[start:end]
		start = end

		dsts := dstsPool.Get().(*[][]byte)
		*dsts = (*dsts)[:0]
		for _, x := range chunk {
			*dsts = append(*dsts, x.dst)
		}
		var (
			call *stripeCall
			err  error
		)
		if len(chunk) == 1 && chunk[0].off == 0 && int(chunk[0].n) == info.BlockLen(chunk[0].block) {
			// A single whole block: the simple pipelined read.
			e := encoder{buf: (*reqBuf)[:0]}
			e.str(info.Name)
			e.u64(uint64(chunk[0].block))
			*reqBuf = e.buf
			call, err = p.pick().start(ctx, msgRead2, *reqBuf, *dsts)
		} else {
			*reqBuf = appendReadvRequest((*reqBuf)[:0], info.Name, chunk)
			call, err = p.pick().start(ctx, msgReadv, *reqBuf, *dsts)
		}
		if err != nil {
			*dsts = (*dsts)[:0]
			dstsPool.Put(dsts)
			firstErr = err
			break
		}
		started = append(started, batch{call: call, dsts: dsts, bytes: int64(size), reads: int64(len(chunk))})
	}

	var doneBytes, doneReads int64
	for _, b := range started {
		err := b.call.wait(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			doneBytes += b.bytes
			doneReads += b.reads
		}
		// The stripe layer guarantees nothing touches the destination table
		// once wait returns, so it can be recycled here.
		clear(*b.dsts)
		*b.dsts = (*b.dsts)[:0]
		dstsPool.Put(b.dsts)
	}
	if doneReads > 0 {
		c.mu.Lock()
		c.bytesRead += doneBytes
		c.reads += doneReads
		c.mu.Unlock()
	}
	return firstErr
}

// scatterCompressed serves a vectored read for a compression-enabled client:
// whole blocks travel the DEFLATE read path (which keeps its own lock-step
// control connection and wire statistics) and the extents are copied out of
// the inflated blocks.
func (c *Client) scatterCompressed(ctx context.Context, info DatasetInfo, exts []Extent) error {
	per := perServerPool.Get().(map[string][]blockExtent)
	defer putPerServer(per)
	if err := splitExtents(info, exts, per); err != nil {
		return err
	}
	byBlock := make(map[int64][]blockExtent)
	order := make([]int64, 0, len(byBlock))
	for _, list := range per {
		for _, x := range list {
			if _, ok := byBlock[x.block]; !ok {
				order = append(order, x.block)
			}
			byBlock[x.block] = append(byBlock[x.block], x)
		}
	}
	workers := c.stripes
	if workers < 1 {
		workers = 1
	}
	return c.scatterBlockwise(ctx, info, byBlock, order, workers)
}

// scatterBlockwise fetches each block of byBlock once through the compressed
// read (with a bounded worker fan-out — never a goroutine per block) and
// copies the block's extents into their destinations. After the first error
// remaining blocks are skipped, not fetched.
func (c *Client) scatterBlockwise(ctx context.Context, info DatasetInfo, byBlock map[int64][]blockExtent, order []int64, workers int) error {
	if workers > len(order) {
		workers = len(order)
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	blockCh := make(chan int64)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for block := range blockCh {
				if failed() {
					continue
				}
				data, err := c.readBlockCompressed(ctx, info, block)
				if err != nil {
					fail(err)
					continue
				}
				for _, x := range byBlock[block] {
					if int(x.off)+int(x.n) > len(data) {
						fail(fmt.Errorf("%w: block %d returned %d bytes, extent wants [%d,+%d)",
							ErrProtocol, block, len(data), x.off, x.n))
						break
					}
					copy(x.dst, data[x.off:int(x.off)+int(x.n)])
				}
			}
		}()
	}
	for _, b := range order {
		blockCh <- b
	}
	close(blockCh)
	wg.Wait()
	return firstErr
}
