package dataplane

// Flow observation contract. The concrete observer lives in
// internal/obs; the interface sits here so the fabrics can hold one
// without importing the ops plane (which itself imports the controller
// for its introspection handlers). The contract mirrors FaultInjector:
// Active must be a single cheap check, and the disabled path of an
// attached observer must not change forwarding cost at all — the
// fabrics guard every call site with ObsOn, so a nil or disabled
// observer costs one nil check plus one atomic load per site and never
// allocates.

// SendSample is the per-send accounting handed to the observer at the
// single per-send site (after the forwarding loop drains). Fields are
// plain values so passing the struct allocates nothing.
type SendSample struct {
	// VNI and Group identify the multicast group (zero for baseline
	// unicast/overlay sends, which carry no group address).
	VNI, Group uint32
	// Delivered counts member hosts that received the packet; Lost
	// counts copies dropped in flight (failed switches, chaos drops,
	// unparseable corrupted headers).
	Delivered, Lost int
	// Bytes is the total wire bytes this send pushed across links.
	Bytes int64
	// Hops counts switch traversals.
	Hops int
	// Nanos is the wall-clock forwarding time of the send.
	Nanos int64
}

// FlowObserver receives per-link and per-send traffic accounting from
// the fabrics. ObserveLink fires once per directed link crossing (the
// same crossings LinkBytes counts) on every transport; ObserveSend
// fires once per send on the synchronous fabric only, since the
// asynchronous transports have no point at which a send is complete.
// Implementations must tolerate concurrent calls: the live fabrics
// forward from many goroutines.
type FlowObserver interface {
	// Active reports whether observation is currently enabled; when
	// false the fabrics skip the observe calls entirely.
	Active() bool
	// ObserveLink records bytes crossing one directed link.
	ObserveLink(l Link, bytes int)
	// ObserveSend records the outcome of one completed send.
	ObserveSend(s SendSample)
}

// ObsOn is the hot-path guard mirroring FaultsOn: a nil check plus the
// observer's own cheap activity check.
func ObsOn(o FlowObserver) bool {
	return o != nil && o.Active()
}
