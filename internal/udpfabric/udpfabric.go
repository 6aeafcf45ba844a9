// Package udpfabric runs the Elmo data plane over real UDP sockets:
// every leaf, spine, and core switch — and every host — is a localhost
// datagram endpoint, and packets cross genuine OS sockets as the exact
// wire bytes (outer Ethernet/IPv4/UDP/VXLAN encapsulation + Elmo
// section stream + inner frame) that the header package defines.
//
// This is the highest-fidelity emulation tier: where package fabric
// forwards synchronously in process and package livefabric uses
// channels, udpfabric exercises the full marshal → socket → parse path
// per hop, the shape a userspace software-switch deployment (PISCES/
// OVS-style) actually has. Forwarding itself is the fabric package's
// shared step; this package owns the sockets, the batched readers and
// the precomputed peer addresses. It is used by tests and examples,
// not by the large-scale simulations.
package udpfabric

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// maxFrame bounds one datagram (outer + 512-byte header budget + MTU).
const maxFrame = 4096

// HostPacket is a frame delivered to a host endpoint.
type HostPacket = fabric.HostPacket

// UDPFabric binds a fabric's switches to UDP sockets.
type UDPFabric struct {
	base *fabric.Fabric
	wire *fabric.Wire

	// conn holds every element's socket by dataplane.LinkTier; addr
	// holds their addresses, resolved once at bind time, so the hot
	// forwarding path never repeats the LocalAddr type assertion per
	// datagram.
	conn [4][]*net.UDPConn
	addr [4][]*net.UDPAddr

	hostRx []chan HostPacket

	startOnce sync.Once
	stopOnce  sync.Once
	stopped   chan struct{}
	wg        sync.WaitGroup
	metrics   *Metrics

	mu sync.Mutex
	// Malformed counts undecodable datagrams; Dropped counts frames
	// discarded at full host queues; ReadErrors counts transient socket
	// read errors the readers retried past; SendErrors counts datagram
	// writes the socket rejected.
	Malformed, Dropped, ReadErrors, SendErrors int
}

// New binds one ephemeral localhost UDP socket per switch and host of
// the base fabric. Install group state, then call Start to spawn the
// switch/host readers (switch group tables and the base fabric's
// failure set are not guarded; installs and failure changes must
// happen while the fabric is quiet, same contract as livefabric).
func New(base *fabric.Fabric) (*UDPFabric, error) {
	topo := base.Topology()
	u := &UDPFabric{base: base, stopped: make(chan struct{})}
	counts := [4]int{
		dataplane.LinkHost: topo.NumHosts(), dataplane.LinkLeaf: topo.NumLeaves(),
		dataplane.LinkSpine: topo.NumSpines(), dataplane.LinkCore: topo.NumCores(),
	}
	for t, n := range counts {
		conns, err := listenN(n)
		if err != nil {
			u.Close()
			return nil, err
		}
		u.conn[t], u.addr[t] = conns, addrsOf(conns)
	}
	u.hostRx = make([]chan HostPacket, topo.NumHosts())
	for i := range u.hostRx {
		u.hostRx[i] = make(chan HostPacket, 1024)
	}
	u.wire = base.NewWire(fabric.WireConfig{
		Transmit: u.transmit,
		HostRx:   u.hostRx,
		Stop:     u.stopped,
		WG:       &u.wg,
		OnMalformed: func() {
			u.mu.Lock()
			u.Malformed++
			u.mu.Unlock()
			u.metrics.onMalformed()
		},
		OnHostDrop: func() {
			u.mu.Lock()
			u.Dropped++
			u.mu.Unlock()
			u.metrics.onHostDrop()
		},
	})
	return u, nil
}

// Start spawns the per-switch and per-host reader goroutines. It is
// idempotent and safe to call from multiple goroutines; only the first
// call spawns readers.
func (u *UDPFabric) Start() {
	u.startOnce.Do(func() {
		for tier, conns := range u.conn {
			for i, conn := range conns {
				var fn func(wire []byte)
				if tier == int(dataplane.LinkHost) {
					h := topology.HostID(i)
					fn = func(wire []byte) { u.wire.DeliverHost(h, wire) }
				} else {
					fn = u.wire.Switch(dataplane.LinkTier(tier), i).Forward
				}
				u.wg.Add(1)
				go u.readLoop(conn, fn)
			}
		}
	})
}

func addrsOf(conns []*net.UDPConn) []*net.UDPAddr {
	addrs := make([]*net.UDPAddr, len(conns))
	for i, c := range conns {
		addrs[i] = c.LocalAddr().(*net.UDPAddr)
	}
	return addrs
}

func listenN(n int) ([]*net.UDPConn, error) {
	conns := make([]*net.UDPConn, n)
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			for _, prev := range conns[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("udpfabric: %w", err)
		}
		conns[i] = c
	}
	return conns, nil
}

// Close shuts the sockets down and waits for the readers.
func (u *UDPFabric) Close() {
	u.stopOnce.Do(func() { close(u.stopped) })
	for _, set := range u.conn {
		for _, c := range set {
			c.Close()
		}
	}
	u.wg.Wait()
}

// HostRx returns the delivery channel for a host.
func (u *UDPFabric) HostRx(h topology.HostID) <-chan HostPacket { return u.hostRx[h] }

// HostAddr returns the UDP address a host endpoint listens on (the
// "NIC" applications would send through).
func (u *UDPFabric) HostAddr(h topology.HostID) *net.UDPAddr {
	return u.addr[dataplane.LinkHost][h]
}

// transmit writes one datagram from l's sending socket to its
// receiving one.
func (u *UDPFabric) transmit(l dataplane.Link, wire []byte) error {
	return u.writeTo(u.conn[l.FromTier][l.From], wire, u.addr[l.ToTier][l.To])
}

// writeTo transmits one datagram and keeps the send accounting honest:
// only a successful write counts toward the sent totals; failures are
// tallied separately as SendErrors.
func (u *UDPFabric) writeTo(from *net.UDPConn, wire []byte, dst *net.UDPAddr) error {
	if _, err := from.WriteToUDP(wire, dst); err != nil {
		u.mu.Lock()
		u.SendErrors++
		u.mu.Unlock()
		u.metrics.onSendError()
		return err
	}
	u.metrics.onSent()
	return nil
}

// Send encapsulates at the sender's hypervisor and transmits the frame
// to the sender's leaf over UDP.
func (u *UDPFabric) Send(sender topology.HostID, addr dataplane.GroupAddr, inner []byte) error {
	return u.wire.Send(sender, addr, inner)
}

// InstallGroup proxies to the base fabric.
func (u *UDPFabric) InstallGroup(ctrl *controller.Controller, key controller.GroupKey) ([]topology.HostID, error) {
	return u.base.InstallGroup(ctrl, key)
}

// SetTracer attaches a flight recorder to the base fabric, which the
// UDP fabric's forwarding step records through. Call before Start.
func (u *UDPFabric) SetTracer(r trace.Recorder) { u.base.SetTracer(r) }

// SetInjector attaches a fault injector to the base fabric, which the
// UDP fabric's forwarding step consults at every link crossing. Call
// before Start. Delay verdicts are interpreted as milliseconds.
func (u *UDPFabric) SetInjector(inj dataplane.FaultInjector) { u.base.SetInjector(inj) }

// readErrBackoffCap bounds the retry backoff after consecutive
// transient socket read errors.
const readErrBackoffCap = 100 * time.Millisecond

// readBatch caps how many queued datagrams one reader wakeup drains
// before processing them, emulating recvmmsg-style batching with the
// stdlib: one blocking read, then non-blocking polls until the socket
// queue is empty or the batch is full.
const readBatch = 32

// pastDeadline is any instant in the past; setting it as a read
// deadline turns ReadFromUDP into a non-blocking poll.
var pastDeadline = time.Unix(1, 0)

// readLoop drains one socket, handing each datagram to fn until close.
// Frames are drawn from a per-reader freelist and recycled after fn
// returns, so fn must not retain wire (or any slice aliasing it)
// beyond its call. Each wakeup coalesces up to readBatch datagrams:
// the first read blocks, the rest poll with an already-expired
// deadline and stop at the first timeout. Transient read errors on the
// blocking read (e.g. ECONNREFUSED bounced back on localhost, buffer
// pressure) are counted and retried with exponential backoff capped at
// readErrBackoffCap; poll timeouts are the normal empty-queue signal
// and are never counted. Only a closed socket or fabric stop ends the
// loop.
func (u *UDPFabric) readLoop(conn *net.UDPConn, fn func(wire []byte)) {
	defer u.wg.Done()
	var free [][]byte
	batch := make([][]byte, 0, readBatch)
	getFrame := func() []byte {
		if n := len(free); n > 0 {
			f := free[n-1]
			free = free[:n-1]
			return f
		}
		return make([]byte, maxFrame)
	}
	backoff := time.Duration(0)
	for {
		conn.SetReadDeadline(time.Time{})
		frame := getFrame()
		n, _, err := conn.ReadFromUDP(frame)
		if err != nil {
			free = append(free, frame)
			if errors.Is(err, net.ErrClosed) {
				return
			}
			u.mu.Lock()
			u.ReadErrors++
			u.mu.Unlock()
			u.metrics.onRetry()
			if backoff == 0 {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > readErrBackoffCap {
				backoff = readErrBackoffCap
			}
			select {
			case <-u.stopped:
				return
			case <-time.After(backoff):
				continue
			}
		}
		backoff = 0
		u.metrics.onRecv()
		batch = append(batch, frame[:n])
		conn.SetReadDeadline(pastDeadline)
		for len(batch) < readBatch {
			frame := getFrame()
			n, _, err := conn.ReadFromUDP(frame)
			if err != nil {
				// Timeout means the queue is drained; a real error
				// (including close) recurs on the next blocking read,
				// where it is counted or ends the loop.
				free = append(free, frame)
				break
			}
			u.metrics.onRecv()
			batch = append(batch, frame[:n])
		}
		for _, wire := range batch {
			fn(wire)
			free = append(free, wire[:maxFrame])
		}
		batch = batch[:0]
	}
}

// WaitForDeliveries collects n frames from a host with a deadline —
// a convenience for tests and examples on real sockets.
func (u *UDPFabric) WaitForDeliveries(h topology.HostID, n int, timeout time.Duration) ([]HostPacket, error) {
	out := make([]HostPacket, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case p := <-u.hostRx[h]:
			out = append(out, p)
		case <-deadline:
			return out, fmt.Errorf("udpfabric: host %d got %d of %d before timeout", h, len(out), n)
		}
	}
	return out, nil
}
