package fabric

import (
	"elmo/internal/dataplane"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// This file is the per-element forwarding step every transport shares:
// the synchronous forward loop, livefabric's switch goroutines and
// udpfabric's socket readers all run a switch through stepSwitch,
// resolve and filter each emission through hop, and apply the crossing
// rule (observer, then injector verdict) through cross. The transports
// differ only in how a copy moves to the next element: a queue entry,
// a channel send, or a datagram.

// event is one packet arriving at element (tier, id): a switch, or a
// host when tier is dataplane.LinkHost.
type event struct {
	tier dataplane.LinkTier
	id   int32
	pkt  dataplane.Packet
}

// heldEvent is a delayed event: released into the queue when the
// forwarding loop's iteration counter reaches due.
type heldEvent struct {
	ev  event
	due int
}

// procState is the reusable per-send working memory: the switch
// scratch plus the event queue and delay buffer. A single scratch
// serves all switches of a send — forward is synchronous, and the
// scratch arena is append-only until the send completes, so stamped
// streams queued behind other events stay valid.
type procState struct {
	scratch dataplane.SwitchScratch
	queue   []event
	// head indexes the next event to pop; draining by index (instead
	// of re-slicing queue[1:]) keeps the backing array reusable.
	head int
	held []heldEvent
}

// fwd is the per-send forwarding state shared with admit.
type fwd struct {
	d          *Delivery
	ps         *procState
	n          int
	vni, group uint32
}

// takeState hands out a per-send state from the fabric's freelist,
// allocating only when every state is in use. Serial senders therefore
// reuse one state forever and a warm send allocates nothing for
// forwarding, while concurrent senders each get their own. Unlike a
// sync.Pool, the freelist never drops states (the race detector makes
// a pool discard items on purpose), so allocation counts are exact.
func (f *Fabric) takeState() *procState {
	f.freeMu.Lock()
	n := len(f.free)
	if n == 0 {
		f.freeMu.Unlock()
		return new(procState)
	}
	ps := f.free[n-1]
	f.free = f.free[:n-1]
	f.freeMu.Unlock()
	ps.scratch.Reset()
	ps.queue = ps.queue[:0]
	ps.head = 0
	ps.held = ps.held[:0]
	return ps
}

// releaseState returns a state taken by takeState.
func (f *Fabric) releaseState(ps *procState) {
	f.freeMu.Lock()
	f.free = append(f.free, ps)
	f.freeMu.Unlock()
}

// stepSwitch runs switch (tier, id) over one packet, writing its
// emissions into sc.
func (f *Fabric) stepSwitch(tier dataplane.LinkTier, id int32, pkt *dataplane.Packet, sc *dataplane.SwitchScratch) ([]dataplane.Emission, error) {
	var sw *dataplane.NetworkSwitch
	switch tier {
	case dataplane.LinkLeaf:
		sw = f.Leaves[id]
	case dataplane.LinkSpine:
		sw = f.Spines[id]
	default:
		sw = f.Cores[id]
	}
	return sw.ProcessInto(*pkt, sc)
}

// resolve maps an emission of switch (tier, id) to the directed link
// it crosses; ToTier and To name the next element. It is the only
// place the transports turn switch ports into neighbours.
func (f *Fabric) resolve(tier dataplane.LinkTier, id int32, em *dataplane.Emission) dataplane.Link {
	l := dataplane.Link{FromTier: tier, From: id}
	switch {
	case tier == dataplane.LinkLeaf && em.Up:
		l.ToTier, l.To = dataplane.LinkSpine, int32(f.topo.LeafUpstream(topology.LeafID(id), em.Port))
	case tier == dataplane.LinkLeaf:
		l.ToTier, l.To = dataplane.LinkHost, int32(f.topo.HostAt(topology.LeafID(id), em.Port))
	case tier == dataplane.LinkSpine && em.Up:
		l.ToTier, l.To = dataplane.LinkCore, int32(f.topo.SpineUpstream(topology.SpineID(id), em.Port))
	case tier == dataplane.LinkSpine:
		l.ToTier, l.To = dataplane.LinkLeaf, int32(f.topo.SpineDownstream(topology.SpineID(id), em.Port))
	default:
		l.ToTier, l.To = dataplane.LinkSpine, int32(f.topo.CoreDownstream(topology.CoreID(id), topology.PodID(em.Port)))
	}
	return l
}

// hop resolves an emission's link and applies the declared-failure
// drop: a copy headed for a spine or core the failure set marks down
// is lost there (and traced) unless it is a health probe. ok is false
// for a lost copy.
func (f *Fabric) hop(tier dataplane.LinkTier, id int32, em *dataplane.Emission, probe bool) (l dataplane.Link, ok bool) {
	l = f.resolve(tier, id, em)
	if probe {
		return l, true
	}
	var down bool
	switch l.ToTier {
	case dataplane.LinkSpine:
		down = f.failures.SpineFailed(topology.SpineID(l.To))
	case dataplane.LinkCore:
		down = f.failures.CoreFailed(topology.CoreID(l.To))
	}
	if down && trace.On(f.tracer, trace.CatFabric) {
		ev := trace.Event{Cat: trace.CatFabric, Kind: trace.KindDrop, Tier: trace.Tier(l.ToTier), Switch: l.To}
		if a, ok := dataplane.GroupAddrFromOuter(em.Packet.Outer); ok {
			ev.VNI, ev.Group = a.VNI, a.Group
		}
		f.tracer.Record(ev)
	}
	return l, !down
}

// cross is the one rule every transport applies when a copy of size
// bytes crosses link l: report the crossing to the observer, then ask
// the injector for a verdict. copies is how many copies continue — 0
// when the verdict drops it, 2 when it duplicates it (the duplicate
// crosses the link too and is reported as well). The transport applies
// the rest of v to its own representation of the copy: Corrupt flips
// bytes of the copy's wire encoding before any duplication, and
// DelaySteps holds every surviving copy (loop iterations on the
// synchronous fabric, milliseconds on the wire transports).
func (f *Fabric) cross(l dataplane.Link, size int, vni, group uint32) (v dataplane.FaultVerdict, copies int) {
	if dataplane.ObsOn(f.observer) {
		f.observer.ObserveLink(l, size)
	}
	if !dataplane.FaultsOn(f.injector) {
		return v, 1
	}
	v = f.injector.Cross(l, vni, group)
	switch {
	case v.Drop:
		return v, 0
	case v.Duplicate:
		if dataplane.ObsOn(f.observer) {
			f.observer.ObserveLink(l, size)
		}
		return v, 2
	}
	return v, 1
}
