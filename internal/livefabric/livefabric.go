// Package livefabric runs the emulated Elmo fabric as a concurrent
// system: every leaf, spine, and core switch is a goroutine consuming
// fully marshaled wire frames from its ingress channel, running them
// through the fabric package's shared forwarding step (parse → match →
// replicate → pop, then next-hop resolution and the crossing rule), and
// writing the resulting frames to its neighbors' channels. Hosts
// receive decoded frames on per-host channels.
//
// Where package fabric forwards synchronously for deterministic
// measurement, livefabric runs the same step under real concurrency
// and real (de)serialization per hop — the form the example
// applications (market data feeds, chat) run on. It owns only the
// channels and goroutines.
package livefabric

import (
	"fmt"
	"sync"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/header"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// HostPacket is one frame delivered to a host's VMs.
type HostPacket = fabric.HostPacket

// Config tunes the live fabric.
type Config struct {
	// QueueDepth is each switch ingress queue's capacity. Queues full
	// enough to block model congestion; frames are never dropped.
	QueueDepth int
	// HostQueueDepth is each host RX channel's capacity; overflow
	// drops the frame (receiver too slow), counted in Stats.
	HostQueueDepth int
}

// DefaultConfig returns sensible emulation defaults.
func DefaultConfig() Config { return Config{QueueDepth: 4096, HostQueueDepth: 4096} }

// LiveFabric wraps a fabric's switches with goroutines and channels.
type LiveFabric struct {
	topo *topology.Topology
	base *fabric.Fabric
	wire *fabric.Wire

	// in holds the switch ingress queues, indexed by dataplane.LinkTier
	// (the host slot is unused: hosts receive on hostRx).
	in     [4][]chan []byte
	hostRx []chan HostPacket

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
	metrics *Metrics

	mu sync.Mutex
	// HostDrops counts frames dropped at full host queues.
	HostDrops int
	// Malformed counts frames a switch failed to parse.
	Malformed int
}

// New wraps an existing (already configured) fabric. Group state must
// be installed through the base fabric before Start; the live fabric
// only moves packets. The switch goroutines read the base fabric's
// group tables and failure set without locks: change either only
// while senders are quiet and the fabric is drained.
func New(base *fabric.Fabric, cfg Config) *LiveFabric {
	topo := base.Topology()
	lf := &LiveFabric{topo: topo, base: base, stop: make(chan struct{})}
	lf.in[dataplane.LinkLeaf] = makeChans(topo.NumLeaves(), cfg.QueueDepth)
	lf.in[dataplane.LinkSpine] = makeChans(topo.NumSpines(), cfg.QueueDepth)
	lf.in[dataplane.LinkCore] = makeChans(topo.NumCores(), cfg.QueueDepth)
	lf.hostRx = make([]chan HostPacket, topo.NumHosts())
	for i := range lf.hostRx {
		lf.hostRx[i] = make(chan HostPacket, cfg.HostQueueDepth)
	}
	lf.wire = base.NewWire(fabric.WireConfig{
		Transmit: lf.transmit,
		HostRx:   lf.hostRx,
		Stop:     lf.stop,
		WG:       &lf.wg,
		OnMalformed: func() {
			lf.mu.Lock()
			lf.Malformed++
			lf.mu.Unlock()
			lf.metrics.onMalformed()
		},
		OnHostDrop: func() {
			lf.mu.Lock()
			lf.HostDrops++
			lf.mu.Unlock()
			lf.metrics.onHostDrop()
		},
	})
	return lf
}

func makeChans(n, depth int) []chan []byte {
	chs := make([]chan []byte, n)
	for i := range chs {
		chs[i] = make(chan []byte, depth)
	}
	return chs
}

// Base returns the wrapped fabric (for group installation).
func (lf *LiveFabric) Base() *fabric.Fabric { return lf.base }

// SetTracer attaches a flight recorder to the base fabric, which the
// live fabric's forwarding step records through. Call before Start.
func (lf *LiveFabric) SetTracer(r trace.Recorder) { lf.base.SetTracer(r) }

// SetInjector attaches a fault injector to the base fabric, which the
// live fabric's forwarding step consults at every link crossing. Call
// before Start. Delay verdicts are interpreted as milliseconds here.
func (lf *LiveFabric) SetInjector(inj dataplane.FaultInjector) { lf.base.SetInjector(inj) }

// HostRx returns the delivery channel for a host.
func (lf *LiveFabric) HostRx(h topology.HostID) <-chan HostPacket { return lf.hostRx[h] }

// Start launches one goroutine per switch.
func (lf *LiveFabric) Start() {
	if lf.started {
		return
	}
	lf.started = true
	for tier, chans := range lf.in {
		for id, ch := range chans {
			lf.wg.Add(1)
			go lf.run(ch, lf.wire.Switch(dataplane.LinkTier(tier), id))
		}
	}
}

// run serves one switch: every frame from its ingress queue goes
// through the shared forwarding step.
func (lf *LiveFabric) run(in chan []byte, sw *fabric.WireSwitch) {
	defer lf.wg.Done()
	for {
		select {
		case <-lf.stop:
			return
		case wire := <-in:
			sw.Forward(wire)
		}
	}
}

// Stop terminates the switch goroutines. In-flight frames may be lost;
// call Drain first for a clean shutdown.
func (lf *LiveFabric) Stop() {
	if !lf.started {
		return
	}
	close(lf.stop)
	lf.wg.Wait()
	lf.started = false
}

// Drain waits until all switch ingress queues are empty (quiescence),
// up to the timeout. It does not guarantee host channels were read.
func (lf *LiveFabric) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if lf.queuesEmpty() {
			// Double-check after a settle period: a frame may be
			// between queues (popped but not yet re-enqueued).
			time.Sleep(2 * time.Millisecond)
			if lf.queuesEmpty() {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("livefabric: drain timeout")
		}
		time.Sleep(time.Millisecond)
	}
}

func (lf *LiveFabric) queuesEmpty() bool {
	for _, chans := range lf.in {
		for _, ch := range chans {
			if len(ch) > 0 {
				return false
			}
		}
	}
	return true
}

// Send encapsulates at the sender's hypervisor and injects the frame
// at its leaf. It returns immediately; deliveries arrive on HostRx
// channels.
func (lf *LiveFabric) Send(sender topology.HostID, addr dataplane.GroupAddr, inner []byte) error {
	return lf.wire.Send(sender, addr, inner)
}

// transmit moves a frame across l: a host-bound frame is delivered in
// place; a switch-bound one is copied into a frame the ingress queue
// owns, blocking on a full queue (congestion) unless the fabric stops.
func (lf *LiveFabric) transmit(l dataplane.Link, wire []byte) error {
	if l.ToTier == dataplane.LinkHost {
		lf.wire.DeliverHost(topology.HostID(l.To), wire)
		return nil
	}
	select {
	case lf.in[l.ToTier][l.To] <- append([]byte(nil), wire...):
		return nil
	case <-lf.stop:
		return fmt.Errorf("livefabric: stopped")
	}
}

// EnableCongestionAwareMultipath replaces flow-hash ECMP with a
// CONGA/HULA-style least-loaded picker: each switch steers multipathed
// packets to the upstream port whose next-hop ingress queue is
// shortest (ties broken by flow hash so steady state stays spread).
// Call before Start.
func (lf *LiveFabric) EnableCongestionAwareMultipath() {
	cfg := lf.topo.Config()
	for i, sw := range lf.base.Leaves {
		leaf := topology.LeafID(i)
		sw.UpstreamPicker = func(f header.OuterFields, alive []int) int {
			return lf.leastLoaded(alive, f, func(port int) int {
				return len(lf.in[dataplane.LinkSpine][lf.topo.LeafUpstream(leaf, port)])
			})
		}
	}
	for i, sw := range lf.base.Spines {
		plane := lf.topo.SpinePlane(topology.SpineID(i))
		sw.UpstreamPicker = func(f header.OuterFields, alive []int) int {
			return lf.leastLoaded(alive, f, func(port int) int {
				return len(lf.in[dataplane.LinkCore][plane*cfg.CoresPerPlane+port])
			})
		}
	}
}

// leastLoaded returns the alive port with the smallest queue estimate,
// breaking ties with the flow hash.
func (lf *LiveFabric) leastLoaded(alive []int, f header.OuterFields, depth func(port int) int) int {
	best := alive[0]
	bestDepth := depth(best)
	for _, p := range alive[1:] {
		if d := depth(p); d < bestDepth {
			best, bestDepth = p, d
		}
	}
	// Tie-break across equally-empty queues by hashing the flow.
	ties := make([]int, 0, len(alive))
	for _, p := range alive {
		if depth(p) == bestDepth {
			ties = append(ties, p)
		}
	}
	if len(ties) > 1 {
		return ties[dataplane.ECMPHash(f, 0x10ad)%uint32(len(ties))]
	}
	return best
}

// InstallGroup is a convenience proxy to the base fabric. Call before
// Start, or after Drain while senders are quiet — switch goroutines
// read the same group tables.
func (lf *LiveFabric) InstallGroup(ctrl *controller.Controller, key controller.GroupKey) ([]topology.HostID, error) {
	return lf.base.InstallGroup(ctrl, key)
}
