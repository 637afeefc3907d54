package dpss

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// respWriteTimeout bounds one response write on a master or block-server
// connection: a client that stops draining cannot pin a serve loop (and the
// per-conn goroutine behind it) forever.
const respWriteTimeout = 30 * time.Second

// reply writes one response frame under a write deadline. Errors are
// deliberately dropped: a dead or stalled client surfaces on the serve
// loop's next read, which tears the connection down.
func reply(conn net.Conn, msgType byte, payload []byte) {
	conn.SetWriteDeadline(time.Now().Add(respWriteTimeout)) //nolint:errcheck
	writeFrame(conn, msgType, payload)                      //nolint:errcheck
}

// Master is the DPSS master: it keeps the dataset catalog, decides block
// placement (logical-to-physical mapping via round-robin striping over the
// registered block servers), performs access control, and answers client
// open/stat requests. It never touches block data itself — that flows
// directly between clients and block servers, which is what lets the DPSS
// scale by adding servers.
type Master struct {
	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	servers  []string
	datasets map[string]DatasetInfo
	// allowed is the access-control list: empty means open access, otherwise
	// only listed client host prefixes may open datasets.
	allowed []string
	opens   int64
	denials int64
}

// NewMaster creates a master with no registered servers or datasets.
func NewMaster() *Master {
	return &Master{
		conns:    make(map[net.Conn]struct{}),
		datasets: make(map[string]DatasetInfo),
	}
}

// RegisterServer adds a block server address to the stripe set. Servers
// registered after a dataset is created do not affect that dataset's layout.
func (m *Master) RegisterServer(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.servers {
		if s == addr {
			return
		}
	}
	m.servers = append(m.servers, addr)
}

// Servers returns the registered block-server addresses in stripe order.
func (m *Master) Servers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.servers...)
}

// AllowClients installs an access-control list of client address prefixes
// (e.g. "127.0.0.1"). With an empty list all clients are allowed.
func (m *Master) AllowClients(prefixes ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.allowed = append([]string(nil), prefixes...)
}

// CreateDataset registers a dataset of the given size and block size
// (DefaultBlockSize if 0) and returns its placement info. It fails if no
// block servers are registered or the dataset already exists.
func (m *Master) CreateDataset(name string, size int64, blockSize int) (DatasetInfo, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if size < 0 {
		return DatasetInfo{}, fmt.Errorf("dpss: negative dataset size %d", size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.servers) == 0 {
		return DatasetInfo{}, errors.New("dpss: no block servers registered")
	}
	if _, exists := m.datasets[name]; exists {
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	info := DatasetInfo{
		Name:      name,
		Size:      size,
		BlockSize: blockSize,
		Servers:   append([]string(nil), m.servers...),
	}
	m.datasets[name] = info
	return info, nil
}

// Lookup returns a dataset's placement info.
func (m *Master) Lookup(name string) (DatasetInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	info, ok := m.datasets[name]
	if !ok {
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return info, nil
}

// RemoveDataset drops a dataset from the catalog (blocks on the servers are
// the caller's to evict).
func (m *Master) RemoveDataset(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.datasets, name)
}

// Datasets returns the catalog's dataset names, sorted.
func (m *Master) Datasets() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.datasets))
	for n := range m.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Listen starts serving the master protocol on addr and returns the bound
// address.
func (m *Master) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	m.ln = ln
	m.mu.Unlock()
	m.wg.Add(1)
	go m.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the master's listening address.
func (m *Master) Addr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

func (m *Master) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			m.mu.Lock()
			closed := m.closed
			m.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			return
		}
		m.conns[conn] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go m.serveConn(conn)
	}
}

// clientAllowed applies the access-control list to a remote address.
func (m *Master) clientAllowed(remote string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.allowed) == 0 {
		return true
	}
	host, _, err := net.SplitHostPort(remote)
	if err != nil {
		host = remote
	}
	for _, p := range m.allowed {
		if len(host) >= len(p) && host[:len(p)] == p {
			return true
		}
	}
	return false
}

func (m *Master) serveConn(conn net.Conn) {
	defer m.wg.Done()
	defer func() {
		conn.Close()
		m.mu.Lock()
		delete(m.conns, conn)
		m.mu.Unlock()
	}()
	for {
		msgType, payload, err := readFrame(conn) //vislint:ignore boundedio idle request loop: a master connection legitimately waits forever for its client's next request
		if err != nil {
			return
		}
		d := &decoder{buf: payload}
		switch msgType {
		case msgOpen, msgStat:
			if !m.clientAllowed(conn.RemoteAddr().String()) {
				m.mu.Lock()
				m.denials++
				m.mu.Unlock()
				reply(conn, msgError, []byte(ErrAccessDenied.Error()))
				continue
			}
			name := d.str()
			if d.err != nil {
				reply(conn, msgError, []byte(d.err.Error()))
				continue
			}
			info, err := m.Lookup(name)
			if err != nil {
				reply(conn, msgError, []byte(err.Error()))
				continue
			}
			m.mu.Lock()
			m.opens++
			m.mu.Unlock()
			reply(conn, msgOK, encodeDatasetInfo(info))
		case msgCreate:
			name := d.str()
			size := int64(d.u64())
			blockSize := int(d.u32())
			if d.err != nil {
				reply(conn, msgError, []byte(d.err.Error()))
				continue
			}
			info, err := m.CreateDataset(name, size, blockSize)
			if err != nil {
				reply(conn, msgError, []byte(err.Error()))
				continue
			}
			reply(conn, msgOK, encodeDatasetInfo(info))
		case msgRemove:
			name := d.str()
			if d.err != nil {
				reply(conn, msgError, []byte(d.err.Error()))
				continue
			}
			m.RemoveDataset(name)
			reply(conn, msgOK, nil)
		case msgList:
			names := m.Datasets()
			e := &encoder{}
			e.u32(uint32(len(names)))
			for _, n := range names {
				e.str(n)
			}
			reply(conn, msgOK, e.buf)
		default:
			reply(conn, msgError, []byte(ErrProtocol.Error()))
		}
	}
}

// MasterStats summarizes master activity.
type MasterStats struct {
	Servers  int
	Datasets int
	Opens    int64
	Denials  int64
}

// Stats returns a snapshot of the master's counters.
func (m *Master) Stats() MasterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MasterStats{
		Servers:  len(m.servers),
		Datasets: len(m.datasets),
		Opens:    m.opens,
		Denials:  m.denials,
	}
}

// Close stops the master.
func (m *Master) Close() error {
	m.mu.Lock()
	m.closed = true
	ln := m.ln
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	m.wg.Wait()
	return err
}
