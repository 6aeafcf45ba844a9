package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/obs"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
	"elmo/internal/udpfabric"
)

// This file is the data-plane forwarding benchmark stage: it measures
// the batched, allocation-free ProcessInto fast path per switch tier
// against the frozen reference pipeline (dataplane.ReferenceProcess),
// then end to end through the synchronous fabric fan-out and over real
// UDP sockets.
// The result is persisted as BENCH_dataplane.json and doubles as a CI
// bench gate: -dataplane-max-allocs fails the run when any tier's
// warm-scratch ProcessInto allocates more per packet than the
// checked-in budget.

// DataplaneReport is the persisted forwarding-benchmark record.
type DataplaneReport struct {
	Timestamp  string `json:"timestamp"`
	GoMaxProcs int    `json:"go_maxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Members is the receiver count of the benchmarked group; INT
	// stamping is enabled so the per-hop header rewrite is exercised.
	Members int `json:"members"`

	// Per-tier switch pipeline cost, one packet per op: the frozen
	// reference pipeline vs warm-scratch ProcessInto on identical
	// packets.
	LeafReference  BenchStat `json:"leaf_reference_process"`
	LeafFast       BenchStat `json:"leaf_process_into_warm_scratch"`
	SpineReference BenchStat `json:"spine_reference_process"`
	SpineFast      BenchStat `json:"spine_process_into_warm_scratch"`
	CoreReference  BenchStat `json:"core_reference_process"`
	CoreFast       BenchStat `json:"core_process_into_warm_scratch"`

	// AllocsPerPacket is the worst warm-scratch ProcessInto allocs/op
	// across the three tiers — the quantity the bench gate budgets.
	AllocsPerPacket int64 `json:"allocs_per_packet"`
	// PerPacketSpeedup is reference ns/op over fast-path ns/op at the
	// leaf (the tier every packet crosses twice).
	PerPacketSpeedup float64 `json:"per_packet_speedup"`

	// Sync fan-out: whole sends through the synchronous fabric, every
	// copy delivered. PacketsPerSec counts switch traversals (hops) —
	// the per-packet work of the fast path — and SendsPerSec whole
	// multicast sends.
	SyncSends           int     `json:"sync_sends"`
	SyncHopsPerSend     float64 `json:"sync_hops_per_send"`
	SyncFastSendsPerSec float64 `json:"sync_fast_sends_per_sec"`
	SyncFastPktsPerSec  float64 `json:"sync_fast_packets_per_sec"`

	// Forwarding latency distribution of the fast path, read from the
	// ops-plane telemetry histograms over an observed send phase (the
	// observer adds per-link accounting cost, so this phase is timed
	// separately from the fan-out phase above).
	P50SendLatencyNanos float64 `json:"p50_send_latency_nanos"`
	P99SendLatencyNanos float64 `json:"p99_send_latency_nanos"`
	P99HopsPerSend      float64 `json:"p99_hops_per_send"`

	// UDP tier: end-to-end over real localhost sockets (marshal →
	// socket → batched reader → parse per hop). CopiesPerSec counts
	// member deliveries; Delivered may fall short of Sends×Members if
	// the kernel drops datagrams under burst (reported, not hidden).
	UDPSends        int     `json:"udp_sends"`
	UDPMembers      int     `json:"udp_members"`
	UDPDelivered    int     `json:"udp_delivered_copies"`
	UDPCopiesPerSec float64 `json:"udp_copies_per_sec"`
}

// dataplaneStage measures the forwarding fast path and writes the
// report to outPath (empty = stdout only). maxAllocs < 0 disables the
// gate; otherwise the process exits non-zero when any tier's
// warm-scratch ProcessInto exceeds it.
func dataplaneStage(sends, udpSends int, outPath string, maxAllocs int64) {
	rep := &DataplaneReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		SyncSends:  sends,
		UDPSends:   udpSends,
	}

	topo := topology.MustNew(topology.Config{
		Pods: 4, SpinesPerPod: 2, LeavesPerPod: 8, HostsPerLeaf: 8, CoresPerPlane: 2,
	})
	cfg := controller.PaperConfig(0)
	cfg.EnableINT = true
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fab := fabric.New(topo, cfg.SRuleCapacity)
	fab.SetFailures(ctrl.Failures())
	key := controller.GroupKey{Tenant: 11, Group: 1}
	members := map[topology.HostID]controller.Role{}
	for h := 0; h < topo.NumHosts(); h += 3 {
		members[topology.HostID(h)] = controller.RoleBoth
	}
	members[0] = controller.RoleBoth
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		log.Fatal(err)
	}
	if _, err := fab.InstallGroup(ctrl, key); err != nil {
		log.Fatal(err)
	}
	rep.Members = len(members)
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	payload := []byte("dataplane-bench-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")

	// Walk one encapsulated packet down the sender's actual path to
	// capture realistic per-tier inputs (leaf → spine → core).
	sender := topology.HostID(0)
	pkt, err := fab.Hypervisors[sender].Encap(addr, payload)
	if err != nil {
		log.Fatal(err)
	}
	leafID := topo.HostLeaf(sender)
	leafSw := fab.Leaves[leafID]
	spinePkt, spinePort := upEmission(leafSw, pkt)
	spineID := topo.LeafUpstream(leafID, spinePort)
	spineSw := fab.Spines[spineID]
	corePkt, corePort := upEmission(spineSw, spinePkt)
	coreSw := fab.Cores[topo.SpineUpstream(spineID, corePort)]

	fmt.Printf("benchmarking switch pipelines (group of %d, INT on)...\n", len(members))
	rep.LeafReference = benchReference(leafSw, pkt)
	rep.LeafFast = benchFast(leafSw, pkt)
	rep.SpineReference = benchReference(spineSw, spinePkt)
	rep.SpineFast = benchFast(spineSw, spinePkt)
	rep.CoreReference = benchReference(coreSw, corePkt)
	rep.CoreFast = benchFast(coreSw, corePkt)
	rep.AllocsPerPacket = rep.LeafFast.AllocsPerOp
	if rep.SpineFast.AllocsPerOp > rep.AllocsPerPacket {
		rep.AllocsPerPacket = rep.SpineFast.AllocsPerOp
	}
	if rep.CoreFast.AllocsPerOp > rep.AllocsPerPacket {
		rep.AllocsPerPacket = rep.CoreFast.AllocsPerOp
	}
	if rep.LeafFast.NsPerOp > 0 {
		rep.PerPacketSpeedup = float64(rep.LeafReference.NsPerOp) / float64(rep.LeafFast.NsPerOp)
	}

	// Sync fan-out. The group here is Elmo-typical — sparse (one member
	// per leaf) with INT off — so the measured cost is the switch
	// pipeline, not per-copy telemetry decode at the member
	// hypervisors. A warmup levels the heap first.
	fcfg := controller.PaperConfig(0)
	fctrl, err := controller.New(topo, fcfg)
	if err != nil {
		log.Fatal(err)
	}
	ffab := fabric.New(topo, fcfg.SRuleCapacity)
	ffab.SetFailures(fctrl.Failures())
	fkey := controller.GroupKey{Tenant: 12, Group: 1}
	fmembers := map[topology.HostID]controller.Role{}
	for h := 0; h < topo.NumHosts(); h += topo.Config().HostsPerLeaf {
		fmembers[topology.HostID(h)] = controller.RoleBoth
	}
	if _, err := fctrl.CreateGroup(fkey, fmembers); err != nil {
		log.Fatal(err)
	}
	if _, err := ffab.InstallGroup(fctrl, fkey); err != nil {
		log.Fatal(err)
	}
	faddr := dataplane.GroupAddr{VNI: fkey.Tenant, Group: fkey.Group}

	fmt.Printf("fan-out: %d sends (group of %d)...\n", sends, len(fmembers))
	fanout(ffab, sender, faddr, payload, sends/10) // warmup
	runtime.GC()
	fastHops, fastSecs := fanout(ffab, sender, faddr, payload, sends)
	rep.SyncHopsPerSend = float64(fastHops) / float64(sends)
	rep.SyncFastSendsPerSec = float64(sends) / fastSecs
	rep.SyncFastPktsPerSec = float64(fastHops) / fastSecs

	// Observed phase: latency percentiles from the ops-plane
	// histograms (timed apart from the fan-out phase above).
	reg := telemetry.NewRegistry()
	plane := obs.New(obs.Options{Topology: topo, Registry: reg})
	ffab.SetObserver(plane)
	plane.Enable()
	fmt.Printf("fan-out: %d observed sends for latency percentiles...\n", sends/4)
	fanout(ffab, sender, faddr, payload, sends/4)
	plane.Disable()
	ffab.SetObserver(nil)
	lat := reg.Histogram("elmo_obs_send_latency_seconds",
		"Wall-clock fabric forwarding time per send.", telemetry.LatencyBuckets)
	hops := reg.Histogram("elmo_obs_send_hops",
		"Switch traversals per send.", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	rep.P50SendLatencyNanos = lat.Quantile(0.50) * 1e9
	rep.P99SendLatencyNanos = lat.Quantile(0.99) * 1e9
	rep.P99HopsPerSend = hops.Quantile(0.99)

	// UDP tier: smaller topology (one socket per switch and host),
	// paced bursts so localhost buffers are not the thing measured.
	udpStage(rep, udpSends)

	buf, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(buf))
	if outPath != "" {
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}

	if maxAllocs >= 0 {
		if rep.AllocsPerPacket > maxAllocs {
			log.Fatalf("bench gate: warm-scratch ProcessInto allocates %d/packet, budget is %d/packet",
				rep.AllocsPerPacket, maxAllocs)
		}
		fmt.Printf("bench gate: warm-scratch ProcessInto allocates %d/packet (budget %d/packet) ok\n",
			rep.AllocsPerPacket, maxAllocs)
	}
}

// upEmission processes one packet and returns its upstream emission
// (the input for the next tier up).
func upEmission(sw *dataplane.NetworkSwitch, pkt dataplane.Packet) (dataplane.Packet, int) {
	ems, err := sw.ReferenceProcess(pkt)
	if err != nil {
		log.Fatal(err)
	}
	for _, em := range ems {
		if em.Up {
			return em.Packet, em.Port
		}
	}
	log.Fatal("dataplane stage: no upstream emission; group does not leave the pod")
	return dataplane.Packet{}, 0
}

func benchReference(sw *dataplane.NetworkSwitch, pkt dataplane.Packet) BenchStat {
	return statOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sw.ReferenceProcess(pkt); err != nil {
				b.Fatal(err)
			}
		}
	}))
}

func benchFast(sw *dataplane.NetworkSwitch, pkt dataplane.Packet) BenchStat {
	return statOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var s dataplane.SwitchScratch
		if _, err := sw.ProcessInto(pkt, &s); err != nil { // warm the scratch
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			if _, err := sw.ProcessInto(pkt, &s); err != nil {
				b.Fatal(err)
			}
		}
	}))
}

// fanout drives whole sends through the synchronous fabric and
// returns total switch traversals and elapsed seconds.
func fanout(fab *fabric.Fabric, sender topology.HostID, addr dataplane.GroupAddr, payload []byte, sends int) (hops int, secs float64) {
	start := time.Now()
	for i := 0; i < sends; i++ {
		d, err := fab.Send(sender, addr, payload)
		if err != nil {
			log.Fatal(err)
		}
		hops += d.Hops
	}
	return hops, time.Since(start).Seconds()
}

// udpStage measures end-to-end delivered copies/sec over real UDP
// sockets on the paper's example topology.
func udpStage(rep *DataplaneReport, sends int) {
	if sends <= 0 {
		return // gate runs skip the socket tier (-dataplane-udp-sends 0)
	}
	topo := topology.MustNew(topology.PaperExample())
	cfg := controller.PaperConfig(0)
	ctrl, err := controller.New(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	base := fabric.New(topo, cfg.SRuleCapacity)
	key := controller.GroupKey{Tenant: 5, Group: 1}
	members := map[topology.HostID]controller.Role{}
	receivers := []topology.HostID{}
	for h := 0; h < topo.NumHosts(); h += 8 {
		members[topology.HostID(h)] = controller.RoleBoth
		if h != 0 {
			receivers = append(receivers, topology.HostID(h))
		}
	}
	if _, err := ctrl.CreateGroup(key, members); err != nil {
		log.Fatal(err)
	}
	u, err := udpfabric.New(base)
	if err != nil {
		log.Fatal(err)
	}
	defer u.Close()
	if _, err := u.InstallGroup(ctrl, key); err != nil {
		log.Fatal(err)
	}
	u.Start()
	rep.UDPMembers = len(receivers)
	addr := dataplane.GroupAddr{VNI: key.Tenant, Group: key.Group}
	fmt.Printf("udp: %d sends to %d receivers over real sockets...\n", sends, len(receivers))
	start := time.Now()
	for i := 0; i < sends; i++ {
		if err := u.Send(0, addr, []byte("udp-dataplane-bench")); err != nil {
			log.Fatal(err)
		}
		if i%16 == 15 {
			time.Sleep(500 * time.Microsecond) // let readers drain
		}
	}
	delivered := 0
	for _, h := range receivers {
		got, err := u.WaitForDeliveries(h, sends, 5*time.Second)
		if err != nil {
			fmt.Printf("udp: %v (burst loss tolerated)\n", err)
		}
		delivered += len(got)
	}
	secs := time.Since(start).Seconds()
	rep.UDPDelivered = delivered
	rep.UDPCopiesPerSec = float64(delivered) / secs
}
