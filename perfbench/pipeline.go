package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"elmo/internal/controller"
	"elmo/internal/durable"
	"elmo/internal/fabric"
	"elmo/internal/groupgen"
	"elmo/internal/placement"
	"elmo/internal/reliable"
	"elmo/internal/telemetry"
	"elmo/internal/topology"
)

// scale sizes a workload's inputs. Tests shrink it; the command-line
// workloads use the values in workloads.go.
type scale struct {
	Topo   topology.Config
	Place  placement.Config
	Groups int
	// Setups is how many times a run builds the pipeline; setup_s is
	// the median and the last build is the one measured.
	Setups int
}

// inputs are the generated workload inputs: everything the program
// under test receives.
type inputs struct {
	topo  *topology.Topology
	dep   *placement.Deployment
	specs []controller.BatchSpec
}

// generate builds topology, placement and groups. The tenant placement
// is the scale's fixed one: the paper's placement fills the fabric to
// within a few percent, and some placement seeds do not fit. The seed
// draws the groups, their members' roles and, in the clients, the
// operation sequence.
func generate(sc scale, seed int64) (*inputs, error) {
	topo, err := topology.New(sc.Topo)
	if err != nil {
		return nil, err
	}
	dep, err := placement.Place(topo, sc.Place)
	if err != nil {
		return nil, err
	}
	gs, err := groupgen.Generate(dep, groupgen.Config{TotalGroups: sc.Groups, MinSize: 5, Dist: groupgen.WVE, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	// Roles are drawn the way the controller benchmarks draw them
	// (sender, receiver or both, uniformly); a group always keeps at
	// least one receiver so it has a tree.
	rng := rand.New(rand.NewSource(seed + 2))
	roles := []controller.Role{controller.RoleSender, controller.RoleReceiver, controller.RoleBoth}
	specs := make([]controller.BatchSpec, len(gs))
	for i := range gs {
		g := &gs[i]
		members := make(map[topology.HostID]controller.Role, len(g.Hosts))
		receiver := false
		for _, h := range g.Hosts {
			r := roles[rng.Intn(len(roles))]
			members[h] = r
			receiver = receiver || r.CanReceive()
		}
		if !receiver {
			members[g.Hosts[0]] = controller.RoleBoth
		}
		specs[i] = controller.BatchSpec{Key: controller.GroupKey{Tenant: uint32(g.Tenant), Group: g.ID}, Members: members}
	}
	return &inputs{topo: topo, dep: dep, specs: specs}, nil
}

// pipeline is the composed system under test.
type pipeline struct {
	in       *inputs
	cfg      controller.Config
	dir      string
	d        *durable.DurableController
	rs       *durable.ReplicaSet
	follower topology.HostID
	fab      *fabric.Fabric
	reg      *telemetry.Registry

	setupSecs        float64
	installBatchSecs float64
	installAllSecs   float64
}

// pipelineFsync is off: the log frames, writes and group-commits every
// record but skips fsync. On a shared host the device's fsync latency
// varied twofold between runs, which would swamp any change to the
// code; the traced run times real-fsync commits on their own
// (fsyncCommitTimes).
const pipelineFsync = false

// replicationKey names the replication group on the replication fabric.
var replicationKey = controller.GroupKey{Tenant: 1 << 20, Group: 1}

// setup builds the pipeline: inputs, a durable controller on a fresh
// WAL in dir with one warm follower fed over its own small
// replication fabric, InstallBatch of every group, and an epoch-fenced
// InstallGroupAt of every group into the workload fabric. reg, when
// set, is attached to every layer that takes a telemetry registry.
func setup(sc scale, seed int64, dir string, reg *telemetry.Registry) (*pipeline, error) {
	start := time.Now()
	in, err := generate(sc, seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	p := &pipeline{in: in, cfg: controller.PaperConfig(0), dir: dir, reg: reg}

	// The replication group rides a fabric of its own (the paper's
	// 64-host example topology), as the failover benchmark wires it.
	netTopo := topology.MustNew(topology.PaperExample())
	netCtrl, err := controller.New(netTopo, p.cfg)
	if err != nil {
		return nil, err
	}
	netFab := fabric.New(netTopo, p.cfg.SRuleCapacity)
	netFab.SetFailures(netCtrl.Failures())
	p.follower = topology.HostID(netTopo.NumHosts() / 2)
	p.rs, err = durable.NewReplicaSet(durable.ReplicaSetConfig{
		Net: durable.Net(netCtrl, netFab), Key: replicationKey,
		Leader: 0, Followers: []topology.HostID{p.follower},
		Window: 64, Topo: in.topo, Cfg: p.cfg,
	})
	if err != nil {
		return nil, fmt.Errorf("replica set: %w", err)
	}
	if reg != nil {
		p.rs.Cluster().Session().Metrics = reliable.NewMetrics(reg)
	}
	p.d, _, err = durable.Open(in.topo, p.cfg, durable.Options{
		Dir: dir, NoSync: !pipelineFsync, Registry: reg, Replicate: p.rs.Replicator(),
	})
	if err != nil {
		return nil, fmt.Errorf("durable open: %w", err)
	}
	ctrl := p.d.Controller()
	if reg != nil {
		ctrl.EnableMetrics(reg)
	}

	t := time.Now()
	res, err := p.d.InstallBatch(in.specs, controller.BatchOptions{})
	if err != nil {
		p.close()
		return nil, fmt.Errorf("install batch: %w", err)
	}
	p.installBatchSecs = elapsedSince(t)
	if res.Installed != len(in.specs) {
		p.close()
		return nil, fmt.Errorf("install batch: %d of %d groups installed", res.Installed, len(in.specs))
	}
	if err := p.d.ReplicationErr(); err != nil {
		p.close()
		return nil, err
	}

	p.fab = fabric.New(in.topo, p.cfg.SRuleCapacity)
	p.fab.SetFailures(ctrl.Failures())
	if reg != nil {
		p.fab.SetMetrics(fabric.NewMetrics(reg))
	}
	t = time.Now()
	for _, s := range in.specs {
		noPath, err := p.fab.InstallGroupAt(p.d.Epoch(), ctrl, s.Key)
		if err == nil && len(noPath) > 0 {
			err = fmt.Errorf("senders %v have no path", noPath)
		}
		if err != nil {
			p.close()
			return nil, fmt.Errorf("install %v: %w", s.Key, err)
		}
	}
	p.installAllSecs = elapsedSince(t)
	p.setupSecs = elapsedSince(start)
	return p, nil
}

// close releases the WAL and removes its directory.
func (p *pipeline) close() {
	if p.d != nil {
		p.d.Close()
		p.d = nil
	}
	os.RemoveAll(p.dir)
}

// setupRepeated builds the pipeline sc.Setups times, keeping the last
// build, and returns it with the median set-up time. Earlier builds are
// torn down before the next starts so they never share the heap.
func setupRepeated(sc scale, seed int64, dir string, reg *telemetry.Registry) (*pipeline, float64, error) {
	n := sc.Setups
	if n < 1 {
		n = 1
	}
	times := make([]float64, 0, n)
	var p *pipeline
	for i := 0; i < n; i++ {
		if p != nil {
			p.close()
			p = nil
			runtime.GC()
		}
		var r *telemetry.Registry
		if i == n-1 {
			r = reg
		}
		var err error
		p, err = setup(sc, seed, filepath.Join(dir, "wal"), r)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, p.setupSecs)
	}
	return p, median(times), nil
}

// heapMB forces a collection and reports the live heap.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// verifyDurableState runs the post-run checks of the durable pipeline:
// the follower's controller equals the leader's, the live fabric equals
// a fresh fabric reinstalled from the final controller state, and a
// controller recovered from the WAL directory equals the live one. It
// closes the pipeline's durable controller.
func (p *pipeline) verifyDurableState() error {
	ctrl := p.d.Controller()
	live := ctrl.Fingerprint()

	if err := p.rs.Sync(); err != nil {
		return fmt.Errorf("follower sync: %w", err)
	}
	if got := p.rs.Follower(p.follower).Controller().Fingerprint(); got != live {
		return fmt.Errorf("follower fingerprint %.12s != leader %.12s", got, live)
	}

	fresh := fabric.New(p.in.topo, p.cfg.SRuleCapacity)
	fresh.SetFailures(ctrl.Failures())
	for _, key := range ctrl.GroupKeys() {
		if _, err := fresh.InstallGroupAt(p.d.Epoch(), ctrl, key); err != nil {
			return fmt.Errorf("fresh install %v: %w", key, err)
		}
	}
	if fresh.Fingerprint() != p.fab.Fingerprint() {
		return fmt.Errorf("live fabric state differs from a fresh install of the final controller state")
	}
	fresh = nil // recovery below builds a third controller; free the copy first

	if err := p.d.Close(); err != nil {
		return fmt.Errorf("close wal: %w", err)
	}
	p.d = nil
	rec, _, err := durable.Open(p.in.topo, p.cfg, durable.Options{Dir: p.dir})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer rec.Close()
	if got := rec.Controller().Fingerprint(); got != live {
		return fmt.Errorf("recovered fingerprint %.12s != live %.12s", got, live)
	}
	return nil
}
