package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"elmo/internal/dataplane"
	"elmo/internal/telemetry"
)

// runOptions configures one benchmark run.
type runOptions struct {
	Seed    int64
	Seconds float64
	Trace   bool
	OutDir  string
	Scale   scale
	// UDPScale sizes the UDP layer phase of a traced run.
	UDPScale scale
	Log      io.Writer
	// Injector, when set, is attached to the workload's fabric before
	// the timed phase; tests use it to show the output checks fail when
	// copies are lost.
	Injector dataplane.FaultInjector
	// WaitTimeout bounds how long the UDP layer phase waits for a
	// burst's copies (0 = two seconds).
	WaitTimeout time.Duration
}

// warmupShare is the share of the run spent in an untimed warm-up of
// the same loop before measuring; its outcomes still count towards
// attempted and failed.
const warmupShare = 0.05

// run executes one workload run and returns its result.
func run(w *workload, opts runOptions) (*result, error) {
	dir := filepath.Join(opts.OutDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env := currentEnvironment(dir, w.transport)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(opts.Log, "env %s\n", envLine)
	if env.Oversubscribed {
		fmt.Fprintf(opts.Log, "WARNING: GOMAXPROCS %d exceeds nproc %d\n", env.GoMaxProcs, env.NumCPU)
	}

	var reg *telemetry.Registry
	if opts.Trace {
		reg = telemetry.NewRegistry()
	}
	p, setupSecs, err := setupRepeated(opts.Scale, opts.Seed, dir, reg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer p.close()
	c, err := w.start(p, opts)
	if err != nil {
		return nil, err
	}
	defer c.close()
	heap := heapMB()

	total := time.Duration(opts.Seconds * float64(time.Second))
	var t tally
	loop(c, &t, nil, time.Duration(warmupShare*float64(total)))
	runtime.GC()

	var fig figures
	var lm map[string]metric
	if !opts.Trace {
		fig = measure(c, &t, nil, total, opts.Log)
	} else {
		// Half the time with spans off, half with spans on: the
		// difference is the tracing overhead.
		plain := measure(c, &t, nil, total/2, opts.Log)
		tr := newTracer()
		before := reg.Snapshot()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var traced tally
		fig = measure(c, &traced, tr, total/2, opts.Log)
		runtime.ReadMemStats(&ms1)
		delta := reg.Snapshot().Delta(before)
		lm = layerMetrics(w, p, opts.Seed, tr, &traced, delta, &ms0, &ms1)
		overhead := 0.0
		if fig.opsPerCPU > 0 {
			overhead = 100 * (plain.opsPerCPU/fig.opsPerCPU - 1)
		}
		lm["trace.overhead_pct"] = metric{overhead, "%"}
		fsync, err := fsyncCommitTimes(filepath.Join(dir, "fsync"))
		if err != nil {
			return nil, fmt.Errorf("fsync commits: %w", err)
		}
		lm["wal.fsync_commit_p50_us"] = metric{fsync[0], "us"}
		lm["wal.fsync_commit_p99_us"] = metric{fsync[1], "us"}
		t.add(&traced)
		tr.printSelfTimes(opts.Log)
		path := filepath.Join(opts.OutDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, opts.Seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(opts.Log, "wrote %s (%d spans)\n", path, len(tr.spans))
		if w.udpLayer {
			um, ut, err := udpLayer(opts, filepath.Join(dir, "udp"))
			if err != nil {
				return nil, err
			}
			for k, v := range um {
				lm[k] = v
			}
			fmt.Fprintf(opts.Log, "udp layer phase: attempted=%d failed=%d\n", ut.attempted, ut.failed)
			t.attempted += ut.attempted
			t.failed += ut.failed
		}
	}
	checkErr := c.finish(&t)
	if checkErr != nil {
		fmt.Fprintf(opts.Log, "post-run check failed: %v\n", checkErr)
	}
	fmt.Fprintf(opts.Log, "%s seed=%d attempted=%d failed_op_ratio=%g\n",
		w.name, opts.Seed, t.attempted, float64(t.failed)/float64(max(t.attempted, 1)))

	res := &result{
		Correct:   t.failed == 0 && checkErr == nil,
		Attempted: t.attempted,
		Failed:    t.failed,
	}
	e2e := map[string]metric{
		"ops_per_cpu_s":    {fig.opsPerCPU, "1/cpu-s"},
		"copies_per_cpu_s": {fig.copiesPerCPU, "1/cpu-s"},
		"op_p50_us":        {fig.p50, "us"},
	}
	if opts.Trace {
		for k, v := range e2e {
			lm["traced."+k] = v
		}
		lm["traced.ops_per_s"] = metric{fig.opsPerSec, "1/s"}
		lm["traced.copies_per_s"] = metric{fig.copiesPerSec, "1/s"}
		lm["traced.op_p90_us"] = metric{fig.p90, "us"}
		lm["traced.op_p99_us"] = metric{fig.p99, "us"}
		res.Metrics = lm
	} else {
		e2e["setup_s"] = metric{setupSecs, "s"}
		e2e["heap_mb"] = metric{heap, "MB"}
		res.Metrics = e2e
	}
	return res, nil
}

// windows is how many equal windows a timed phase is split into. The
// latency figures are medians over the windows, so one disturbed window
// (a collection cycle, a burst of load from another tenant of the
// machine) does not move them.
const windows = 5

// figures are a timed phase's end-to-end numbers.
//
// The bounded throughput figures count operations and copies per
// second of CPU time the process was given (user plus system over all
// threads, collection included), not per second of wall time. On a
// shared 2-vCPU virtual machine the host took 0.07 to 0.29 CPU-seconds
// per wall-clock second from the virtual CPUs, varying from one run to
// the next (the steal column of /proc/stat), and wall-clock throughput
// followed it; CPU time leaves that out. The traced run reports the
// wall-clock rates too.
//
// The latencies are wall clock: p50 and p90 are medians of the
// per-window percentiles, p99 is over the whole phase. Only p50 is
// bounded: a send whose time spans a pause of its virtual CPU lands in
// the tail, so across runs the tail moved with the withheld share about
// twice as much as the median did.
type figures struct {
	opsPerCPU, copiesPerCPU float64
	opsPerSec, copiesPerSec float64
	p50, p90, p99           float64
}

// measure runs the closed loop for d in equal windows and adds every
// outcome to sum.
func measure(c client, sum *tally, tr *tracer, d time.Duration, log io.Writer) figures {
	var phase tally
	var ops, p50, p90 []float64
	cpu0, wall0 := cpuSeconds(), time.Now()
	for i := 0; i < windows; i++ {
		var w tally
		secs := loop(c, &w, tr, d/windows)
		q := quantiles(w.lat, 0.5, 0.9)
		ops = append(ops, rate(w.verifiedOps, secs))
		p50 = append(p50, q[0])
		p90 = append(p90, q[1])
		phase.add(&w)
	}
	cpu, wall := cpuSeconds()-cpu0, elapsedSince(wall0)
	fig := figures{
		opsPerCPU:    rate(phase.verifiedOps, cpu),
		copiesPerCPU: rate(phase.copies, cpu),
		opsPerSec:    rate(phase.verifiedOps, wall),
		copiesPerSec: rate(phase.copies, wall),
		p50:          median(p50),
		p90:          median(p90),
		p99:          quantiles(phase.lat, 0.99)[0],
	}
	fmt.Fprintf(log, "window ops/s %.0f; cpu %.2f s of %.2f s wall, ops/cpu-s %.0f\n", ops, cpu, wall, fig.opsPerCPU)
	sum.add(&phase)
	return fig
}

// cpuSeconds returns the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// loop runs the client's closed loop for d and returns the seconds it
// took.
func loop(c client, t *tally, tr *tracer, d time.Duration) float64 {
	start := time.Now()
	for time.Since(start) < d {
		c.step(t, tr)
	}
	return elapsedSince(start)
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.verifiedOps += o.verifiedOps
	t.copies += o.copies
	t.sends += o.sends
	t.lat = append(t.lat, o.lat...)
}

func rate(n int64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}
