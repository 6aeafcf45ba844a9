package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"elmo/internal/chaos"
	"elmo/internal/controller"
	"elmo/internal/placement"
	"elmo/internal/topology"
)

// tinyScale shrinks every workload to a few dozen hosts and groups.
var tinyScale = scale{
	Topo:   topology.Config{Pods: 2, SpinesPerPod: 2, LeavesPerPod: 2, HostsPerLeaf: 8, CoresPerPlane: 1},
	Place:  placement.Config{Tenants: 6, VMsPerHost: 4, MinVMs: 5, MaxVMs: 12, MeanVMs: 8, P: 0, Seed: 1},
	Groups: 40,
	Setups: 2,
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec reads the metric lists the benchmark promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []specMetric, names []string) {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return spec.EndToEnd, spec.PerLayer, names
}

func tinyRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %q the program does not define", name)
	}
	res, err := run(w, runOptions{
		Seed: 7, Seconds: 0.3, Trace: traced, OutDir: t.TempDir(), Scale: tinyScale, UDPScale: tinyScale,
		Log: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSmokeEmitsEveryMetric runs each workload at tiny size, untraced
// and traced, and checks that the run is correct and reports exactly
// the metrics BENCHMARK.json lists, each with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer, names := benchmarkSpec(t)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, name, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestChecksFailWhenCopiesDrop shows the output checks are not vacuous:
// a fault injector dropping copies makes sends fail, in fanout_wve's
// timed phase and in the UDP layer phase of its traced run, and the
// run incorrect.
func TestChecksFailWhenCopiesDrop(t *testing.T) {
	for _, traced := range []bool{false, true} {
		inj := chaos.New(chaos.Config{Seed: 3, Drop: 0.2})
		inj.Enable()
		res, err := run(workloads["fanout_wve"], runOptions{
			Seed: 7, Seconds: 0.3, Trace: traced, OutDir: t.TempDir(), Scale: tinyScale, UDPScale: tinyScale,
			Log: io.Discard, Injector: inj, WaitTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("fanout_wve traced=%v with 20%% copy loss: correct=%v failed=%d of %d, want a failed run",
				traced, res.Correct, res.Failed, res.Attempted)
		}
	}

	inj := chaos.New(chaos.Config{Seed: 3, Drop: 0.2})
	inj.Enable()
	_, tl, err := udpLayer(runOptions{
		Seed: 7, UDPScale: tinyScale, Log: io.Discard, Injector: inj, WaitTimeout: 100 * time.Millisecond,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed == 0 {
		t.Errorf("UDP layer phase with 20%% copy loss: failed=0 of %d, want failures", tl.attempted)
	}
}

// TestDurableChecksCatchDivergence shows the post-run checks of
// join_leave_durable are not vacuous: a group missing from the live
// fabric, or a membership change that bypassed the write-ahead log,
// fails them.
func TestDurableChecksCatchDivergence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		diverge func(p *pipeline) error
		want    string
	}{
		{"stale fabric", func(p *pipeline) error {
			return p.fab.UninstallGroupAt(p.d.Epoch(), p.d.Controller(), p.in.specs[0].Key)
		}, "live fabric"},
		{"unlogged join", func(p *pipeline) error {
			key := p.in.specs[0].Key
			for h := 0; h < p.in.topo.NumHosts(); h++ {
				if _, member := p.d.Controller().Group(key).Members[topology.HostID(h)]; !member {
					return p.d.Controller().Join(key, topology.HostID(h), controller.RoleReceiver)
				}
			}
			return nil
		}, "follower"},
	} {
		p, err := setup(tinyScale, 7, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.verifyDurableState(); err != nil {
			t.Fatalf("%s: clean pipeline fails its checks: %v", tc.name, err)
		}
		p.close()

		p, err = setup(tinyScale, 7, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.diverge(p); err != nil {
			t.Fatal(err)
		}
		err = p.verifyDurableState()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check error = %v, want one naming the %s", tc.name, err, tc.want)
		}
		p.close()
	}
}
