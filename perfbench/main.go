// Command perfbench is StratRec's benchmark. It starts an in-process
// server.New + server.Handler on a loopback listener, holds every tenant's
// open pool at a fixed size, drives one workload through internal/client,
// checks every output against a naive replay, and prints each metric by
// name and unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, from a run with client and handler spans and a
// single-threaded replay of the same ops through the layer APIs.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload churn-10k --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// errInvalid marks a run whose steady state did not hold; it is reported,
// never averaged in.
var errInvalid = errors.New("invalid run")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated traffic (requests and drift values)")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := execute(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1, ".bench_build", stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
		if errors.Is(err, errInvalid) {
			return 3
		}
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records the host and the steady state a result was measured in.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// HostProbeMS times a fixed CPU loop before the set-up and after the
	// measured phase; when the two differ, the host's speed changed
	// during the run.
	HostProbeMS []float64      `json:"host_probe_ms"`
	TargetPool  int            `json:"target_pool"`
	PoolMin     int            `json:"pool_min"`
	PoolMax     int            `json:"pool_max"`
	PoolMean    float64        `json:"pool_mean"`
	PoolSample  int            `json:"pool_samples"`
	Valid       bool           `json:"valid"`
	GC          []gcAccount    `json:"gc"`
	Extra       map[string]any `json:"extra,omitempty"`
}

// gcAccount is the collector's work over one measured phase.
type gcAccount struct {
	Phase   string  `json:"phase"`
	Cycles  uint64  `json:"cycles"`
	CPUFrac float64 `json:"cpu_frac"`
}

// hostProbe returns the best of five timings, in ms, of a fixed integer
// loop: the speed of the host's CPU at the moment, for the stamp.
func hostProbe() float64 {
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(1)
		for i := 0; i < 1<<22; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		probeSink = x
		best = min(best, ms(time.Since(start)))
	}
	return best
}

// probeSink keeps hostProbe's loop from being optimised away.
var probeSink uint64

// printer writes the human-readable metric lines.
type printer struct{ w io.Writer }

func (p printer) metric(name string, v float64, unit string, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(p.w, "%-32s %14.4f %s%s\n", name, v, unit, note)
}

// latencies returns the latency in ms of every sample of the given kinds,
// a failed request as +Inf.
func latencies(r *recorder, keep func(opKind) bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if !keep(s.kind) {
			continue
		}
		if s.ok < s.ops {
			out = append(out, math.Inf(1))
		} else {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func ackedOps(r *recorder) int {
	n := 0
	for _, s := range r.samples {
		if s.kind.mutates() {
			n += s.ok
		}
	}
	return n
}

func ackedRate(r *recorder) float64 { return float64(ackedOps(r)) / r.wall.Seconds() }
