package fabric

import (
	"sync"
	"time"

	"elmo/internal/dataplane"
	"elmo/internal/header"
	"elmo/internal/topology"
	"elmo/internal/trace"
)

// HostPacket is one frame delivered to a host's VMs by a wire
// transport.
type HostPacket struct {
	Addr      dataplane.GroupAddr
	Inner     []byte
	Telemetry []header.INTRecord
}

// WireConfig connects a wire transport — one that moves marshaled
// frames between elements, such as livefabric's channels or
// udpfabric's sockets — to the shared forwarding step.
type WireConfig struct {
	// Transmit moves one frame across l to the element l.ToTier/l.To
	// names. It must not retain wire after returning, and it may be
	// called concurrently (delayed copies are sent from their own
	// goroutines).
	Transmit func(l dataplane.Link, wire []byte) error
	// HostRx holds each host's delivery queue; DeliverHost never
	// blocks on it.
	HostRx []chan HostPacket
	// Stop ends delayed transmissions early; WG tracks their
	// goroutines so the transport can wait for them on shutdown.
	Stop <-chan struct{}
	WG   *sync.WaitGroup
	// OnMalformed and OnHostDrop update the transport's own loss
	// counters: an undecodable frame, and a frame discarded at a full
	// host queue.
	OnMalformed, OnHostDrop func()
}

// Wire is the shared forwarding step for a wire transport. The
// tracer, injector and observer it applies are the base fabric's, so
// SetTracer/SetInjector/SetObserver on the fabric reach every
// transport built over it. The observer sees every link crossing;
// ObserveSend stays specific to the synchronous fabric, because an
// asynchronous transport has no point at which a send is complete.
type Wire struct {
	f   *Fabric
	cfg WireConfig
}

// NewWire builds the forwarding step for a wire transport over f.
func (f *Fabric) NewWire(cfg WireConfig) *Wire {
	return &Wire{f: f, cfg: cfg}
}

// Send encapsulates inner at the sender's hypervisor and transmits the
// frame across the sender's host→leaf link. The returned error is the
// encapsulation's or the undelayed transmission's.
func (w *Wire) Send(sender topology.HostID, a dataplane.GroupAddr, inner []byte) error {
	pkt, err := w.f.Hypervisors[sender].Encap(a, inner)
	if err != nil {
		return err
	}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		return err
	}
	return w.cross(dataplane.Link{
		FromTier: dataplane.LinkHost, From: int32(sender),
		ToTier: dataplane.LinkLeaf, To: int32(w.f.topo.HostLeaf(sender)),
	}, a.VNI, a.Group, wire)
}

// cross applies the crossing rule to a marshaled frame and transmits
// the surviving copies. Corruption flips bytes anywhere in the frame —
// outer header, Elmo stream or inner payload, as a real wire would —
// in place, so wire may be the caller's scratch; a delayed copy is
// taken before the call returns.
func (w *Wire) cross(l dataplane.Link, vni, group uint32, wire []byte) error {
	v, copies := w.f.cross(l, len(wire), vni, group)
	if copies == 0 {
		return nil
	}
	if v.Corrupt {
		w.f.injector.CorruptWire(wire)
	}
	if v.DelaySteps > 0 {
		w.delay(l, append([]byte(nil), wire...), copies, time.Duration(v.DelaySteps)*time.Millisecond)
		return nil
	}
	var err error
	for i := 0; i < copies; i++ {
		if e := w.cfg.Transmit(l, wire); e != nil {
			err = e
		}
	}
	return err
}

// delay transmits copies of wire across l after d, unless the
// transport stops first.
func (w *Wire) delay(l dataplane.Link, wire []byte, copies int, d time.Duration) {
	w.cfg.WG.Add(1)
	go func() {
		defer w.cfg.WG.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-w.cfg.Stop:
			return
		}
		for i := 0; i < copies; i++ {
			w.cfg.Transmit(l, wire)
		}
	}()
}

// DeliverHost is the host end of a crossing: it decodes wire, runs
// host h's hypervisor receive path, and queues the frame on h's
// delivery channel without blocking. The queued frame owns its bytes,
// so wire may be reused once DeliverHost returns.
func (w *Wire) DeliverHost(h topology.HostID, wire []byte) {
	pkt, err := dataplane.Unmarshal(w.f.layout, wire)
	if err != nil {
		w.malformed()
		return
	}
	inner, tel, ok := w.f.Hypervisors[h].DeliverFull(pkt)
	if !ok {
		return
	}
	addr, _ := dataplane.GroupAddrFromOuter(pkt.Outer)
	select {
	case w.cfg.HostRx[h] <- HostPacket{Addr: addr, Inner: append([]byte(nil), inner...), Telemetry: tel}:
	default:
		w.cfg.OnHostDrop()
		if trace.On(w.f.tracer, trace.CatFabric) {
			w.f.tracer.Record(trace.Event{
				Cat: trace.CatFabric, Kind: trace.KindHostDrop, Tier: trace.TierHost,
				Switch: int32(h), VNI: addr.VNI, Group: addr.Group,
			})
		}
	}
}

func (w *Wire) malformed() {
	w.cfg.OnMalformed()
	if trace.On(w.f.tracer, trace.CatFabric) {
		w.f.tracer.Record(trace.Event{Cat: trace.CatFabric, Kind: trace.KindMalformed})
	}
}

// WireSwitch is one switch's forwarding state on a wire transport: the
// switch scratch and a marshal buffer, owned by the single goroutine
// that serves the switch.
type WireSwitch struct {
	w    *Wire
	tier dataplane.LinkTier
	id   int32
	sc   dataplane.SwitchScratch
	mbuf []byte
}

// Switch returns the forwarding state for switch (tier, id). Give each
// serving goroutine its own.
func (w *Wire) Switch(tier dataplane.LinkTier, id int) *WireSwitch {
	return &WireSwitch{w: w, tier: tier, id: int32(id)}
}

// Forward runs one received frame through the switch and transmits
// every surviving copy. The scratch is reset per frame: each emission
// is re-marshaled and transmitted before the next frame, so no arena
// bytes outlive the call, and wire is not retained.
func (s *WireSwitch) Forward(wire []byte) {
	w := s.w
	pkt, err := dataplane.Unmarshal(w.f.layout, wire)
	if err != nil {
		w.malformed()
		return
	}
	s.sc.Reset()
	ems, err := w.f.stepSwitch(s.tier, s.id, &pkt, &s.sc)
	if err != nil {
		w.malformed()
		return
	}
	a, _ := dataplane.GroupAddrFromOuter(pkt.Outer)
	probe := a.VNI == dataplane.ProbeVNI
	for i := range ems {
		em := &ems[i]
		l, ok := w.f.hop(s.tier, s.id, em, probe)
		if !ok {
			continue
		}
		if s.mbuf, err = em.Packet.Marshal(s.mbuf[:0]); err != nil {
			w.malformed()
			continue
		}
		w.cross(l, a.VNI, a.Group, s.mbuf)
	}
}
