package dpss

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// pipeToServer runs one BlockServer connection loop over an in-memory pipe
// and returns the client end. The loop is joined when the test ends.
func pipeToServer(t testing.TB, s *BlockServer) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	s.wg.Add(1)
	go s.serveConn(server)
	t.Cleanup(func() {
		client.Close()
		s.wg.Wait()
	})
	return client
}

// seededServer returns a block server holding four 256-byte blocks of
// dataset "d".
func seededServer() *BlockServer {
	s := NewBlockServer(WithDisks(2))
	for b := int64(0); b < 4; b++ {
		s.diskFor(b).WriteBlock("d", b, bytes.Repeat([]byte{byte(b + 1)}, 256))
	}
	return s
}

// seqPayload prefixes a sequenced request body with its seq.
func seqPayload(seq uint32, body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, seq), body...)
}

// TestBlockServerRejectsRetiredMessages: the retired lock-step block read
// (10) and version probe (14) are answered with msgError, and the connection
// goes on serving sequenced reads.
func TestBlockServerRejectsRetiredMessages(t *testing.T) {
	conn := pipeToServer(t, seededServer())
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	retired := map[byte][]byte{
		10: (&encoder{}).str("d").u64(0).buf, // lock-step block read
		14: {0, 0, 0, 2},                     // version probe
	}
	for msgType, payload := range retired {
		if err := writeFrame(conn, msgType, payload); err != nil {
			t.Fatalf("send message %d: %v", msgType, err)
		}
		respType, resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("message %d: %v", msgType, err)
		}
		if respType != msgError {
			t.Fatalf("message %d answered with type %d (%q), want msgError", msgType, respType, resp)
		}
	}

	if err := writeFrame(conn, msgRead2, seqPayload(7, (&encoder{}).str("d").u64(2).buf)); err != nil {
		t.Fatal(err)
	}
	respType, resp, err := readFrame(conn)
	if err != nil {
		t.Fatalf("sequenced read after retired messages: %v", err)
	}
	if respType != msgOK2 || len(resp) != 4+256 || binary.BigEndian.Uint32(resp) != 7 || resp[4] != 3 {
		t.Fatalf("sequenced read answered type %d with %d bytes", respType, len(resp))
	}
}

// FuzzBlockServerRequest sends arbitrary (type, payload) frames through a
// BlockServer connection loop. Every frame must get a well-formed reply —
// echoing the seq of a sequenced request — or a closed connection; never a
// panic and never silence.
func FuzzBlockServerRequest(f *testing.F) {
	enc := func() *encoder { return &encoder{} }
	f.Add(msgRead2, seqPayload(1, enc().str("d").u64(0).buf))
	f.Add(msgReadv, seqPayload(2, appendReadvRequest(nil, "d", []blockExtent{{block: 1, off: 8, n: 16}, {block: 3, n: 256}})))
	f.Add(msgReadv, seqPayload(3, []byte{0, 0, 0, 1, 'd', 0xff, 0xff, 0xff, 0xff}))
	f.Add(msgRead2, []byte{0, 1})
	f.Add(msgWriteBlock, enc().str("d").u64(9).bytes([]byte("block")).buf)
	f.Add(msgReadBlockZ, enc().str("d").u64(1).u32(6).buf)
	f.Add(msgDropDataset, enc().str("d").buf)
	f.Add(byte(10), enc().str("d").u64(0).buf)
	f.Add(byte(14), []byte{0, 0, 0, 2})
	f.Add(byte(0xff), []byte{})
	f.Fuzz(func(t *testing.T, msgType byte, payload []byte) {
		conn := pipeToServer(t, seededServer())
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(conn, msgType, payload); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("server neither read nor closed on a %d-byte type-%d frame", len(payload), msgType)
			}
			return // closed connection
		}
		respType, resp, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("no reply and no close for a %d-byte type-%d frame", len(payload), msgType)
			}
			return
		}
		switch respType {
		case msgOK, msgError:
			if msgType == msgRead2 || msgType == msgReadv {
				t.Fatalf("sequenced request answered with lock-step type %d", respType)
			}
		case msgOK2, msgError2:
			if msgType != msgRead2 && msgType != msgReadv {
				t.Fatalf("lock-step type %d answered with sequenced type %d", msgType, respType)
			}
			if len(resp) < 4 {
				t.Fatalf("sequenced reply of %d bytes carries no seq", len(resp))
			}
			if len(payload) >= 4 && !bytes.Equal(resp[:4], payload[:4]) {
				t.Fatalf("reply seq %x does not echo request seq %x", resp[:4], payload[:4])
			}
		default:
			t.Fatalf("reply type %d is not a response", respType)
		}
	})
}
