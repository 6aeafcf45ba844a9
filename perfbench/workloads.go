package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"elmo/internal/controller"
	"elmo/internal/dataplane"
	"elmo/internal/fabric"
	"elmo/internal/placement"
	"elmo/internal/topology"
	"elmo/internal/udpfabric"
)

// workload is one named benchmark input with its closed-loop client.
type workload struct {
	name  string
	scale scale
	// payload is the inner frame size of every send.
	payload int
	// transport names how copies travel, for the environment record.
	transport string
	// start builds the client on a set-up pipeline.
	start func(p *pipeline, opts runOptions) (client, error)
	// udpLayer adds the UDP layer phase (udpLayer in layers.go) to the
	// workload's traced run.
	udpLayer bool
}

// client is a workload's closed-loop client: step runs one operation
// (a send, a join/leave pair, or a burst) and tallies it.
type client interface {
	step(t *tally, tr *tracer)
	// finish runs the untimed post-run checks.
	finish(t *tally) error
	close()
}

// tally accumulates one phase's outcomes.
type tally struct {
	attempted, failed int64
	verifiedOps       int64
	copies            int64
	// lat holds the workload's operation latency: one send, one join to
	// its first delivery, or one burst to its last verified copy.
	lat []time.Duration
	// sends counts fabric sends, the per-send denominators' base.
	sends int64
}

func (t *tally) outcome(ok bool) {
	t.attempted++
	if ok {
		t.verifiedOps++
	} else {
		t.failed++
	}
}

// The paper's evaluation fabric and placement (§5.1.1): 27,648 hosts,
// 3,000 tenants with at most 12 VMs per rack, WVE group sizes.
var facebookScale = scale{
	Topo:   topology.FacebookFabric(),
	Place:  placement.PaperConfig(12),
	Groups: 20000,
	Setups: 3,
}

// The controller benchmark's small fabric: 256 hosts, 80 tenants. It
// carries the UDP layer phase of fanout_wve's traced run.
var udpScale = scale{
	Topo:   topology.Config{Pods: 4, SpinesPerPod: 2, LeavesPerPod: 8, HostsPerLeaf: 8, CoresPerPlane: 2},
	Place:  placement.Config{Tenants: 80, VMsPerHost: 20, MinVMs: 5, MaxVMs: 24, MeanVMs: 16, P: 1, Seed: 3},
	Groups: 2000,
	Setups: 7,
}

var workloads = map[string]*workload{
	"fanout_wve": {name: "fanout_wve", scale: facebookScale, payload: 64, start: startFanout, udpLayer: true,
		transport: inProcess + "; UDP over loopback in the traced UDP layer phase"},
	"join_leave_durable": {name: "join_leave_durable", scale: facebookScale, payload: 64, transport: inProcess, start: startJoinLeave},
}

const inProcess = "in-process synchronous fabric"

// seqLen is the length of every workload's seeded operation sequence;
// a run cycles through it.
const seqLen = 200000

// target is one group as the client sees it: its wire address and the
// receivers Group.Receivers() reported after set-up.
type target struct {
	key       controller.GroupKey
	addr      dataplane.GroupAddr
	receivers []topology.HostID
	senders   []topology.HostID
}

// targets lists the installed groups that have at least one sender.
func targets(p *pipeline) []target {
	ctrl := p.d.Controller()
	out := make([]target, 0, len(p.in.specs))
	for _, s := range p.in.specs {
		g := ctrl.Group(s.Key)
		senders := g.Senders()
		if len(senders) == 0 {
			continue
		}
		out = append(out, target{
			key:       s.Key,
			addr:      dataplane.GroupAddr{VNI: s.Key.Tenant, Group: s.Key.Group},
			receivers: g.Receivers(),
			senders:   senders,
		})
	}
	return out
}

// sendOp is one send of the seeded sequence.
type sendOp struct {
	target int32
	sender topology.HostID
}

func sendSequence(ts []target, seed int64) []sendOp {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]sendOp, seqLen)
	for i := range seq {
		t := rng.Intn(len(ts))
		seq[i] = sendOp{target: int32(t), sender: ts[t].senders[rng.Intn(len(ts[t].senders))]}
	}
	return seq
}

// verifyDelivery checks one synchronous send: every receiver but the
// sender (plus joined, when set) got exactly one intact copy, and no
// other host did. It returns the verified copies.
func verifyDelivery(d *fabric.Delivery, receivers []topology.HostID, sender, joined topology.HostID, payload []byte) (copies int, ok bool) {
	if d == nil {
		return 0, false
	}
	ok = d.Duplicates == 0 && d.Lost == 0 && d.Malformed == 0
	want := 0
	check := func(h topology.HostID) {
		want++
		if got, present := d.Received[h]; present && bytes.Equal(got, payload) {
			copies++
		} else {
			ok = false
		}
	}
	for _, h := range receivers {
		if h != sender {
			check(h)
		}
	}
	if joined >= 0 {
		check(joined)
	}
	if len(d.Received) != want {
		ok = false
	}
	return copies, ok
}

const noHost = topology.HostID(-1)

// fanout sends 64-byte frames, each to a seeded group from a seeded
// sender, and checks each delivery set.
type fanout struct {
	next    int64
	fab     *fabric.Fabric
	ts      []target
	seq     []sendOp
	payload []byte
}

func startFanout(p *pipeline, opts runOptions) (client, error) {
	ts := targets(p)
	if len(ts) == 0 {
		return nil, fmt.Errorf("no group has a sender")
	}
	if opts.Injector != nil {
		p.fab.SetInjector(opts.Injector)
	}
	return &fanout{fab: p.fab, ts: ts, seq: sendSequence(ts, opts.Seed+3), payload: make([]byte, 64)}, nil
}

func (f *fanout) step(t *tally, tr *tracer) {
	id := f.next
	f.next++
	op := f.seq[id%int64(len(f.seq))]
	tg := &f.ts[op.target]
	binary.LittleEndian.PutUint64(f.payload, uint64(id))
	root := tr.begin("op.send", -1, id)
	s := tr.begin("fabric.send", root, id)
	start := time.Now()
	d, err := f.fab.Send(op.sender, tg.addr, f.payload)
	t.lat = append(t.lat, time.Since(start))
	tr.end(s)
	t.sends++
	copies, ok := verifyDelivery(d, tg.receivers, op.sender, noHost, f.payload)
	t.copies += int64(copies)
	t.outcome(ok && err == nil)
	tr.end(root)
}

func (f *fanout) finish(*tally) error { return nil }
func (f *fanout) close()              {}

// joinLeave joins a non-member VM host of the group's tenant the way
// elmo.Cluster.Join does (uninstall, durable join, reinstall), checks
// the join with one send, then leaves the same host and checks that.
type joinLeave struct {
	next    int64
	p       *pipeline
	ts      []target
	seq     []jlOp
	payload []byte
}

type jlOp struct {
	target int32
	host   topology.HostID
	sender topology.HostID
}

func startJoinLeave(p *pipeline, opts runOptions) (client, error) {
	ts := targets(p)
	tenantHosts := map[uint32][]topology.HostID{}
	for _, t := range p.in.dep.Tenants {
		for _, vm := range t.VMs {
			tenantHosts[uint32(t.ID)] = append(tenantHosts[uint32(t.ID)], vm.Host)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed + 3))
	ctrl := p.d.Controller()
	seq := make([]jlOp, 0, seqLen)
	for tries := 0; len(seq) < seqLen && tries < 4*seqLen; tries++ {
		ti := rng.Intn(len(ts))
		tg := &ts[ti]
		hosts := tenantHosts[tg.key.Tenant]
		h := hosts[rng.Intn(len(hosts))]
		if _, member := ctrl.Group(tg.key).Members[h]; member {
			continue
		}
		seq = append(seq, jlOp{target: int32(ti), host: h, sender: tg.senders[rng.Intn(len(tg.senders))]})
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("no group has a tenant host outside it")
	}
	return &joinLeave{p: p, ts: ts, seq: seq, payload: make([]byte, 64)}, nil
}

func (j *joinLeave) step(t *tally, tr *tracer) {
	id := j.next
	j.next++
	op := j.seq[id%int64(len(j.seq))]
	tg := &j.ts[op.target]
	binary.LittleEndian.PutUint64(j.payload, uint64(id))

	root := tr.begin("op.join", -1, id)
	start := time.Now()
	copies, ok := j.change(tr, root, id, tg, op, true)
	t.lat = append(t.lat, time.Since(start))
	t.sends++
	t.copies += int64(copies)
	t.outcome(ok)
	tr.end(root)

	binary.LittleEndian.PutUint64(j.payload[8:], 1)
	root = tr.begin("op.leave", -1, id)
	copies, ok = j.change(tr, root, id, tg, op, false)
	t.sends++
	t.copies += int64(copies)
	t.outcome(ok)
	tr.end(root)
	binary.LittleEndian.PutUint64(j.payload[8:], 0)
}

// change applies one membership change through the composed pipeline
// and verifies it with one send.
func (j *joinLeave) change(tr *tracer, root int32, id int64, tg *target, op jlOp, join bool) (int, bool) {
	d, fab := j.p.d, j.p.fab
	ctrl, epoch := d.Controller(), d.Epoch()
	s := tr.begin("fabric.uninstall", root, id)
	err := fab.UninstallGroupAt(epoch, ctrl, tg.key)
	tr.end(s)
	if err != nil {
		return 0, false
	}
	if join {
		s = tr.begin("durable.join", root, id)
		err = d.Join(tg.key, op.host, controller.RoleReceiver)
	} else {
		s = tr.begin("durable.leave", root, id)
		err = d.Leave(tg.key, op.host, controller.RoleReceiver)
	}
	tr.end(s)
	s = tr.begin("fabric.install", root, id)
	noPath, ierr := fab.InstallGroupAt(epoch, ctrl, tg.key)
	tr.end(s)
	if err != nil || ierr != nil || len(noPath) > 0 {
		return 0, false
	}
	s = tr.begin("fabric.verify_send", root, id)
	dl, err := fab.Send(op.sender, tg.addr, j.payload)
	tr.end(s)
	joined := noHost
	if join {
		joined = op.host
	}
	copies, ok := verifyDelivery(dl, tg.receivers, op.sender, joined, j.payload)
	return copies, ok && err == nil
}

func (j *joinLeave) finish(*tally) error { return j.p.verifyDurableState() }
func (j *joinLeave) close()              {}

// udpBurst sends bursts of 16 sends of 1,024-byte frames over the UDP
// fabric, then waits for and checks every copy.
type udpBurst struct {
	next    int64
	u       *udpfabric.UDPFabric
	ts      []target
	seq     []sendOp
	timeout time.Duration
	payload [burstLen][]byte
	want    [burstLen]int
	got     [burstLen]int
	need    []int
	hosts   []topology.HostID
}

const burstLen = 16

func startUDPBurst(p *pipeline, opts runOptions) (client, error) {
	ts := targets(p)
	if len(ts) == 0 {
		return nil, fmt.Errorf("no group has a sender")
	}
	u, err := udpfabric.New(p.fab)
	if err != nil {
		return nil, err
	}
	if p.reg != nil {
		u.SetMetrics(udpfabric.NewMetrics(p.reg))
	}
	if opts.Injector != nil {
		u.SetInjector(opts.Injector)
	}
	u.Start()
	b := &udpBurst{u: u, ts: ts, seq: sendSequence(ts, opts.Seed+3), timeout: opts.WaitTimeout,
		need: make([]int, p.in.topo.NumHosts())}
	if b.timeout <= 0 {
		b.timeout = 2 * time.Second
	}
	for i := range b.payload {
		b.payload[i] = make([]byte, 1024)
	}
	return b, nil
}

func (b *udpBurst) step(t *tally, tr *tracer) {
	id := b.next
	b.next += burstLen
	root := tr.begin("op.burst", -1, id)
	start := time.Now()
	b.hosts = b.hosts[:0]
	var sendErr [burstLen]bool
	for i := 0; i < burstLen; i++ {
		op := b.seq[(id+int64(i))%int64(len(b.seq))]
		tg := &b.ts[op.target]
		binary.LittleEndian.PutUint64(b.payload[i], uint64(id)+uint64(i))
		b.want[i], b.got[i] = 0, 0
		for _, h := range tg.receivers {
			if h == op.sender {
				continue
			}
			b.want[i]++
			if b.need[h] == 0 {
				b.hosts = append(b.hosts, h)
			}
			b.need[h]++
		}
		s := tr.begin("udpfabric.send", root, id)
		sendErr[i] = b.u.Send(op.sender, tg.addr, b.payload[i]) != nil
		tr.end(s)
		t.sends++
	}
	s := tr.begin("udpfabric.wait", root, id)
	deadline := start.Add(b.timeout)
	stray := false
	for _, h := range b.hosts {
		pkts, _ := b.u.WaitForDeliveries(h, b.need[h], time.Until(deadline))
		var seen uint32
		for _, pkt := range pkts {
			i, ok := b.match(id, h, pkt)
			if !ok || seen&(1<<i) != 0 {
				stray = true
				continue
			}
			seen |= 1 << i
			b.got[i]++
		}
		b.need[h] = 0
	}
	tr.end(s)
	t.lat = append(t.lat, time.Since(start))
	for i := 0; i < burstLen; i++ {
		t.copies += int64(b.got[i])
		t.outcome(!sendErr[i] && !stray && b.got[i] == b.want[i])
	}
	tr.end(root)
}

// match resolves a copy delivered to host h to its send in the burst
// starting at op id: the sequence number, group and payload must agree
// and h must be one of that send's receivers.
func (b *udpBurst) match(id int64, h topology.HostID, pkt udpfabric.HostPacket) (int, bool) {
	if len(pkt.Inner) != len(b.payload[0]) {
		return 0, false
	}
	i := int64(binary.LittleEndian.Uint64(pkt.Inner)) - id
	if i < 0 || i >= burstLen || !bytes.Equal(pkt.Inner, b.payload[i]) {
		return 0, false
	}
	op := b.seq[(id+i)%int64(len(b.seq))]
	tg := &b.ts[op.target]
	if pkt.Addr != tg.addr || h == op.sender {
		return 0, false
	}
	for _, r := range tg.receivers {
		if r == h {
			return int(i), true
		}
	}
	return 0, false
}

// finish waits briefly for late copies: any frame still arriving after
// the last burst is a duplicate or a copy of a send already failed.
func (b *udpBurst) finish(t *tally) error {
	time.Sleep(50 * time.Millisecond)
	for h := range b.need {
		for drained := false; !drained; {
			select {
			case <-b.u.HostRx(topology.HostID(h)):
				t.failed++
			default:
				drained = true
			}
		}
	}
	return nil
}

func (b *udpBurst) close() { b.u.Close() }
