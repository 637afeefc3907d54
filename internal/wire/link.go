package wire

import (
	"sync"
	"time"

	"visapult/internal/volume"
)

// Link is the back-end side of one viewer: one logical Conn per PE, each a
// single socket or a striped bundle (section 3.4). The back end's PEs write
// payloads on the Conns directly; the viewer answers on the same connections
// with best-axis hints (section 3.3). Link is the one place that reads that
// return channel and that ends the streams.
type Link struct {
	conns []*Conn

	drainOnce sync.Once
	readers   sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// NewLink bundles a viewer's per-PE connections, in PE order.
func NewLink(conns ...*Conn) *Link {
	return &Link{conns: conns}
}

// Conns returns the per-PE connections, in PE order.
func (l *Link) Conns() []*Conn { return l.conns }

// DrainHints starts one reader per connection that consumes the viewer's
// return channel until the viewer closes its side, passing each best-axis
// hint to apply (nil ignores them). Reading is what keeps the socket's
// receive buffer empty, so the teardown is a clean FIN rather than a reset.
// Only the first call has an effect.
func (l *Link) DrainHints(apply func(volume.Axis)) {
	l.drainOnce.Do(func() {
		for _, c := range l.conns {
			l.readers.Add(1)
			go func(c *Conn) {
				defer l.readers.Done()
				for {
					m, err := c.ReadMessage()
					if err != nil {
						return
					}
					if m.Type != MsgAxisHint || apply == nil {
						continue
					}
					if h, err := DecodeAxisHint(m); err == nil {
						apply(h.Axis)
					}
				}
			}(c)
		}
	})
}

// Finish ends every stream: it sends Done on all connections concurrently,
// waits until the viewer has closed its side of each one, and closes the
// sockets. A healthy viewer ends the wait; grace > 0 only bounds a wedged
// one, whose blocked writes the close then fails. Finish drains the return
// channel itself if DrainHints was never called. It returns the first error
// from sending Done or closing.
func (l *Link) Finish(grace time.Duration) error {
	l.DrainHints(nil)
	sendErrs := make([]error, len(l.conns))
	var senders sync.WaitGroup
	for i, c := range l.conns {
		senders.Add(1)
		go func(i int, c *Conn) {
			defer senders.Done()
			sendErrs[i] = c.SendDone()
		}(i, c)
	}
	ended := make(chan struct{})
	go func() {
		senders.Wait()
		l.readers.Wait()
		close(ended)
	}()
	if grace > 0 {
		t := time.NewTimer(grace)
		select {
		case <-ended:
		case <-t.C:
		}
		t.Stop()
	} else {
		<-ended
	}
	closeErr := l.Close()
	<-ended
	for _, err := range sendErrs {
		if err != nil {
			return err
		}
	}
	return closeErr
}

// Close closes every connection at once, without announcing the end of the
// streams: the abort path for a cancelled run. Pending reads and writes on
// the connections fail. Idempotent.
func (l *Link) Close() error {
	l.closeOnce.Do(func() {
		for _, c := range l.conns {
			if err := c.Close(); err != nil && l.closeErr == nil {
				l.closeErr = err
			}
		}
	})
	return l.closeErr
}
