// Command perfbench is the repository benchmark. It drives the composed
// Elmo pipeline — durable controller with a write-ahead log and a warm
// follower, epoch-fenced fabric install, synchronous and UDP forwarding
// — from outside, through the packages' exported functions, in one
// process with one closed-loop client.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload fanout_wve --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end figures; with --trace 1 they are the per-layer figures
// of a separate traced run, and the span trace is written as Chrome
// trace_event JSON under the output directory. fanout_wve's traced run
// adds a phase of checked UDP bursts over loopback sockets on a small
// fabric of its own, for the udpfabric layer figures.
//
// The end-to-end metrics are the same on every workload; what an
// operation is differs:
//
//	workload            operation              op_p50_us
//	fanout_wve          one fabric.Send        send latency
//	join_leave_durable  one join or one leave  join to first delivery
//
// copies_per_cpu_s counts verified member deliveries and ops_per_cpu_s
// verified operations, per second of CPU time the process used in the
// timed phase (see figures in run.go); op_p50_us is the median over the
// phase's windows of their wall-clock median. setup_s is the median
// build time of the pipeline (inputs, InstallBatch, InstallGroupAt of
// every group) over several builds, and heap_mb the live heap after the
// last one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed the workload's inputs and operation sequence are generated from")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for the write-ahead log and the trace file")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	opts := runOptions{
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *traced == 1,
		OutDir:   *outDir,
		Scale:    w.scale,
		UDPScale: udpScale,
		Log:      os.Stdout,
	}
	res, err := run(w, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// environment is the record printed with every result.
type environment struct {
	NumCPU        int    `json:"nproc"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	WALFilesystem string `json:"wal_filesystem"`
	// RealFsync reports whether an fsync on the WAL's filesystem reaches
	// a device; PipelineFsync whether the timed pipeline issues fsyncs
	// at all (see setup).
	RealFsync     bool   `json:"real_fsync"`
	PipelineFsync bool   `json:"pipeline_fsync"`
	Transport     string `json:"transport"`
	// Oversubscribed flags a run whose GOMAXPROCS exceeds the CPUs the
	// process may run on: its figures measure time slicing.
	Oversubscribed bool `json:"oversubscribed"`
}

func currentEnvironment(walDir, transport string) environment {
	fs, real := filesystemOf(walDir)
	return environment{
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		WALFilesystem:  fs,
		RealFsync:      real,
		Transport:      transport,
		PipelineFsync:  pipelineFsync,
		Oversubscribed: runtime.GOMAXPROCS(0) > runtime.NumCPU(),
	}
}

func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
