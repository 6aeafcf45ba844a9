package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/durable"
	"elmo/internal/header"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
	"elmo/internal/wal"
)

// layerMetrics assembles the per-layer figures of a traced run: span
// percentiles from the traced phase, counter ratios from the registry
// delta over the same phase, and short timings of single layers on
// seeded samples of the workload's own inputs.
func layerMetrics(w *workload, p *pipeline, seed int64, tr *tracer, t *tally,
	delta telemetry.Snapshot, ms0, ms1 *runtime.MemStats) map[string]metric {
	m := map[string]metric{}
	us := func(name, span string) {
		q := quantiles(tr.durations(span), 0.5, 0.99)
		m[name+"_p50_us"] = metric{q[0], "us"}
		m[name+"_p99_us"] = metric{q[1], "us"}
	}
	us("fabric.uninstall", "fabric.uninstall")
	us("durable.join", "durable.join")
	us("durable.leave", "durable.leave")
	us("fabric.install", "fabric.install")
	us("fabric.verify_send", "fabric.verify_send")
	us("fabric.send", "fabric.send")

	hist := func(name, family, label, value string) {
		h := p.reg.HistogramVec(family, "", telemetry.LatencyBuckets, label).With(value)
		if h.Count() == 0 {
			m[name+"_p50_us"], m[name+"_p99_us"] = metric{0, "us"}, metric{0, "us"}
			return
		}
		m[name+"_p50_us"] = metric{h.Quantile(0.5) * 1e6, "us"}
		m[name+"_p99_us"] = metric{h.Quantile(0.99) * 1e6, "us"}
	}
	hist("controller.join", "elmo_controller_op_duration_seconds", "op", "join")
	hist("wal.commit", "elmo_wal_latency_seconds", "stage", "commit")
	hist("wal.flush", "elmo_wal_latency_seconds", "stage", "flush")

	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	appends := delta.Get("elmo_wal_appends_total")
	membership := delta.Get(`elmo_controller_ops_total{op="join"}`) + delta.Get(`elmo_controller_ops_total{op="leave"}`)
	m["wal.records_per_batch"] = metric{per(appends, delta.Get("elmo_wal_batches_total")), "count"}
	m["wal.bytes_per_record"] = metric{per(delta.Get("elmo_wal_bytes_total"), appends), "bytes"}
	m["controller.recomputes_per_op"] = metric{per(delta.Get("elmo_controller_recomputes_total"), membership), "count"}
	m["reliable.retransmits"] = metric{delta.Get("elmo_reliable_retransmits_total"), "count"}

	sends := float64(t.sends)
	m["fabric.hops_per_send"] = metric{per(delta.Get("elmo_fabric_hops_total"), sends), "count"}
	m["fabric.link_bytes_per_send"] = metric{per(delta.Get("elmo_fabric_link_bytes_total"), sends), "bytes"}
	m["fabric.spurious_per_send"] = metric{per(delta.Get("elmo_fabric_spurious_total"), sends), "count"}
	m["header.bytes_per_send"] = metric{per(delta.Get("elmo_host_header_bytes_added_total"), sends), "bytes"}
	var hits, srule, def float64
	for _, tier := range []string{"leaf", "spine", "core"} {
		for _, rule := range []string{"prule", "srule", "default"} {
			v := delta.Get(`elmo_dataplane_rule_hits_total{tier="` + tier + `",rule="` + rule + `"}`)
			hits += v
			switch rule {
			case "srule":
				srule += v
			case "default":
				def += v
			}
		}
	}
	m["dataplane.srule_hit_share"] = metric{per(srule, hits), "ratio"}
	m["dataplane.default_rule_share"] = metric{per(def, hits), "ratio"}
	m["runtime.allocs_per_op"] = metric{per(float64(ms1.Mallocs-ms0.Mallocs), float64(t.attempted)), "count"}
	m["runtime.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}

	for k, v := range udpMetrics(tr, delta, t) {
		m[k] = v
	}

	rows, opTime := tr.selfTimes()
	var inLayers time.Duration
	for _, r := range rows {
		if r.layer != "op" {
			inLayers += r.self
		}
	}
	m["trace.layer_share"] = metric{per(float64(inLayers), float64(opTime)), "ratio"}

	m["durable.install_batch_s"] = metric{p.installBatchSecs, "s"}
	m["fabric.install_all_s"] = metric{p.installAllSecs, "s"}
	rng := rand.New(rand.NewSource(seed + 4))
	enc := encodeTimes(p, rng)
	m["controller.encode_p50_us"] = metric{enc[0], "us"}
	m["controller.encode_p99_us"] = metric{enc[1], "us"}
	tiers := tierTimes(p, targets(p), w.payload, rng)
	m["dataplane.encap_ns"] = metric{tiers.encap, "ns"}
	m["dataplane.leaf_ns"] = metric{tiers.leaf, "ns"}
	m["dataplane.spine_ns"] = metric{tiers.spine, "ns"}
	m["dataplane.core_ns"] = metric{tiers.core, "ns"}
	m["header.marshal_ns"] = metric{tiers.marshal, "ns"}
	m["header.unmarshal_ns"] = metric{tiers.unmarshal, "ns"}
	return m
}

// udpMetrics returns the udpfabric layer figures of a traced phase
// (all 0 for a phase that sends nothing over UDP).
func udpMetrics(tr *tracer, delta telemetry.Snapshot, t *tally) map[string]metric {
	m := map[string]metric{}
	for _, name := range []string{"udpfabric.send", "udpfabric.wait"} {
		q := quantiles(tr.durations(name), 0.5, 0.99)
		m[name+"_p50_us"] = metric{q[0], "us"}
		m[name+"_p99_us"] = metric{q[1], "us"}
	}
	perCopy := 0.0
	if t.copies > 0 {
		perCopy = delta.Get("elmo_udp_datagrams_sent_total") / float64(t.copies)
	}
	m["udpfabric.datagrams_per_copy"] = metric{perCopy, "count"}
	m["udpfabric.host_queue_drops"] = metric{delta.Get("elmo_udp_host_queue_drops_total"), "count"}
	m["udpfabric.send_errors"] = metric{delta.Get("elmo_udpfabric_send_errors_total"), "count"}
	m["udpfabric.read_retries"] = metric{delta.Get("elmo_udp_read_retries_total"), "count"}
	return m
}

// udpLayerSeconds is the length of the traced UDP layer phase: about
// a thousand bursts, so each wait p99 has ten samples above it.
const udpLayerSeconds = 3

// udpLayer is the UDP layer phase of a traced run. On a pipeline of
// its own at opts.UDPScale with its own registry, it runs bursts of 16
// checked 1 KiB sends over loopback UDP sockets (the udpBurst client)
// for udpLayerSeconds after a short warm-up, and returns the udpfabric
// figures with the phase's outcomes, every copy checked.
func udpLayer(opts runOptions, dir string) (map[string]metric, *tally, error) {
	reg := telemetry.NewRegistry()
	p, err := setup(opts.UDPScale, opts.Seed, dir, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("udp layer setup: %w", err)
	}
	defer p.close()
	c, err := startUDPBurst(p, opts)
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	var t tally
	loop(c, &t, nil, udpLayerSeconds*time.Second/10)
	tr := newTracer()
	before := reg.Snapshot()
	var traced tally
	loop(c, &traced, tr, udpLayerSeconds*time.Second)
	delta := reg.Snapshot().Delta(before)
	t.add(&traced)
	if err := c.finish(&t); err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(opts.Log, "UDP layer phase:")
	tr.printSelfTimes(opts.Log)
	return udpMetrics(tr, delta, &traced), &t, nil
}

// fsyncSamples is how many records fsyncCommitTimes commits.
const fsyncSamples = 500

// fsyncCommitTimes commits join records one at a time to a separate
// log in dir with real fsync and returns the commit latency p50 and p99
// in microseconds: the device cost the timed pipeline leaves out.
func fsyncCommitTimes(dir string) ([]float64, error) {
	log, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	rec := durable.EncodeMembership(durable.RecJoin, controller.GroupKey{Tenant: 1, Group: 1}, 1, controller.RoleReceiver)
	ds := make([]time.Duration, fsyncSamples)
	for i := range ds {
		start := time.Now()
		if _, err := log.AppendSync(rec[0], rec); err != nil {
			return nil, err
		}
		ds[i] = time.Since(start)
	}
	return quantiles(ds, 0.5, 0.99), nil
}

// encodeSamples is the number of receiver sets the encoder is timed on:
// enough that the 99th percentile has 20 samples above it.
const encodeSamples = 2000

// encodeTimes times controller.ComputeEncodingInto with a warm scratch
// on a seeded sample of the installed groups' receiver sets and returns
// the p50 and p99 in microseconds.
func encodeTimes(p *pipeline, rng *rand.Rand) []float64 {
	ctrl := p.d.Controller()
	sets := make([][]topology.HostID, encodeSamples)
	for i := range sets {
		g := ctrl.Group(p.in.specs[rng.Intn(len(p.in.specs))].Key)
		sets[i] = g.Receivers()
	}
	capFn := ctrl.Occupancy().CapacityFunc()
	var s controller.EncodeScratch
	for _, r := range sets { // warm the scratch
		controller.ComputeEncodingInto(p.in.topo, p.cfg, capFn, r, &s)
	}
	ds := make([]time.Duration, len(sets))
	for i, r := range sets {
		start := time.Now()
		controller.ComputeEncodingInto(p.in.topo, p.cfg, capFn, r, &s)
		ds[i] = time.Since(start)
	}
	return quantiles(ds, 0.5, 0.99)
}

type tierTiming struct {
	encap, leaf, spine, core, marshal, unmarshal float64
}

// tierSamples and tierIters size the single-layer timings: each of
// tierSamples seeded (group, sender) pairs is timed over tierIters
// repetitions and the median over pairs is reported in nanoseconds.
const (
	tierSamples = 64
	tierIters   = 500
)

// tierTimes times the sender hypervisor's Encap, ProcessInto at each
// switch tier on packets captured along the sender's real path (the
// input each tier sees in the fabric), and header marshal/unmarshal.
func tierTimes(p *pipeline, ts []target, payloadLen int, rng *rand.Rand) tierTiming {
	fab, topo := p.fab, p.in.topo
	layout := header.LayoutFor(topo)
	payload := make([]byte, payloadLen)
	var encap, leaf, spine, core, marshal, unmarshal []float64
	per := func(f func()) float64 {
		f()
		start := time.Now()
		for i := 0; i < tierIters; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / tierIters
	}
	var sc dataplane.SwitchScratch
	process := func(sw *dataplane.NetworkSwitch, pkt dataplane.Packet) func() {
		return func() {
			sc.Reset()
			sw.ProcessInto(pkt, &sc)
		}
	}
	for n := 0; n < tierSamples; n++ {
		tg := &ts[rng.Intn(len(ts))]
		sender := tg.senders[rng.Intn(len(tg.senders))]
		hv := fab.Hypervisors[sender]
		pkt, err := hv.Encap(tg.addr, payload)
		if err != nil {
			continue
		}
		encap = append(encap, per(func() { hv.Encap(tg.addr, payload) }))
		wire, _ := pkt.Marshal(nil)
		buf := make([]byte, 0, len(wire))
		marshal = append(marshal, per(func() { buf, _ = pkt.Marshal(buf[:0]) }))
		unmarshal = append(unmarshal, per(func() { dataplane.Unmarshal(layout, wire) }))

		leafID := topo.HostLeaf(sender)
		leafSw := fab.Leaves[leafID]
		leaf = append(leaf, per(process(leafSw, pkt)))
		spinePkt, port, ok := upEmission(leafSw, pkt)
		if !ok {
			continue
		}
		spineID := topo.LeafUpstream(leafID, port)
		spineSw := fab.Spines[spineID]
		spine = append(spine, per(process(spineSw, spinePkt)))
		corePkt, port, ok := upEmission(spineSw, spinePkt)
		if !ok {
			continue
		}
		core = append(core, per(process(fab.Cores[topo.SpineUpstream(spineID, port)], corePkt)))
	}
	return tierTiming{median(encap), median(leaf), median(spine), median(core), median(marshal), median(unmarshal)}
}

// upEmission returns a packet's upstream copy at sw, the input of the
// next tier up, as an owned packet (ReferenceProcess allocates its
// emissions, unlike ProcessInto's scratch-backed ones).
func upEmission(sw *dataplane.NetworkSwitch, pkt dataplane.Packet) (dataplane.Packet, int, bool) {
	ems, err := sw.ReferenceProcess(pkt)
	if err != nil {
		return dataplane.Packet{}, 0, false
	}
	for _, em := range ems {
		if em.Up {
			return em.Packet, em.Port, true
		}
	}
	return dataplane.Packet{}, 0, false
}
