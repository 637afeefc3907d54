package dpss

import (
	"errors"
	"net"
	"os"
	"slices"
	"testing"
	"time"
)

// pipeToMaster runs one Master connection loop over an in-memory pipe and
// returns the client end. The loop is joined when the test ends.
func pipeToMaster(t testing.TB, m *Master) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	m.mu.Lock()
	m.conns[server] = struct{}{}
	m.mu.Unlock()
	m.wg.Add(1)
	go m.serveConn(server)
	t.Cleanup(func() {
		client.Close()
		m.wg.Wait()
	})
	return client
}

// seededMaster returns a master with one block server and dataset "d".
func seededMaster(t testing.TB) *Master {
	t.Helper()
	m := NewMaster()
	m.RegisterServer("127.0.0.1:1")
	if _, err := m.CreateDataset("d", 1024, 256); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMasterRejectsMalformedFrames: the retired wire registration (4) and
// open/stat/create/remove payloads that fail to decode are answered with
// msgError and leave the server list and the catalog as they were.
func TestMasterRejectsMalformedFrames(t *testing.T) {
	m := seededMaster(t)
	conn := pipeToMaster(t, m)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	servers, datasets := m.Servers(), m.Datasets()

	frames := []struct {
		name    string
		msgType byte
		payload []byte
	}{
		{"register", 4, (&encoder{}).str("127.0.0.1:2").buf},
		{"truncated register", 4, []byte{0, 0}},
		{"truncated create", msgCreate, []byte{0, 0}},
		{"create without sizes", msgCreate, (&encoder{}).str("e").buf},
		{"truncated open", msgOpen, []byte{0, 0, 0, 9, 'd'}},
		{"truncated stat", msgStat, []byte{0}},
		{"truncated remove", msgRemove, []byte{0, 0, 0, 1}},
	}
	for _, fr := range frames {
		if err := writeFrame(conn, fr.msgType, fr.payload); err != nil {
			t.Fatalf("%s: send: %v", fr.name, err)
		}
		respType, resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("%s: %v", fr.name, err)
		}
		if respType != msgError {
			t.Fatalf("%s answered with type %d (%q), want msgError", fr.name, respType, resp)
		}
	}
	if got := m.Servers(); !slices.Equal(got, servers) {
		t.Fatalf("servers = %q after malformed frames, want %q", got, servers)
	}
	if got := m.Datasets(); !slices.Equal(got, datasets) {
		t.Fatalf("datasets = %q after malformed frames, want %q", got, datasets)
	}
}

// FuzzMasterRequest sends arbitrary (type, payload) frames through a Master
// connection loop. Every frame must get a lock-step reply or a closed
// connection, never a panic or silence, and a frame answered with msgError
// must change neither the catalog nor the server list.
func FuzzMasterRequest(f *testing.F) {
	enc := func() *encoder { return &encoder{} }
	f.Add(msgOpen, enc().str("d").buf)
	f.Add(msgStat, enc().str("missing").buf)
	f.Add(msgCreate, enc().str("e").u64(4096).u32(512).buf)
	f.Add(msgCreate, enc().str("d").u64(4096).u32(512).buf)
	f.Add(msgCreate, []byte{0, 0})
	f.Add(msgRemove, enc().str("d").buf)
	f.Add(msgList, []byte{})
	f.Add(byte(4), enc().str("127.0.0.1:2").buf)
	f.Add(byte(4), []byte{0, 0, 0, 7})
	f.Add(byte(0xff), []byte{})
	f.Fuzz(func(t *testing.T, msgType byte, payload []byte) {
		m := seededMaster(t)
		servers, datasets := m.Servers(), m.Datasets()
		conn := pipeToMaster(t, m)
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(conn, msgType, payload); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("master neither read nor closed on a %d-byte type-%d frame", len(payload), msgType)
			}
			return // closed connection
		}
		respType, _, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("no reply and no close for a %d-byte type-%d frame", len(payload), msgType)
			}
			return
		}
		switch respType {
		case msgOK:
		case msgError:
			if got := m.Servers(); !slices.Equal(got, servers) {
				t.Fatalf("rejected type-%d frame changed servers %q -> %q", msgType, servers, got)
			}
			if got := m.Datasets(); !slices.Equal(got, datasets) {
				t.Fatalf("rejected type-%d frame changed datasets %q -> %q", msgType, datasets, got)
			}
		default:
			t.Fatalf("reply type %d is not a lock-step response", respType)
		}
	})
}
