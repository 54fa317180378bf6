package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"

	"stratrec/internal/server"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
}

// perLayer lists the traced run's metrics in report order. README.md
// names, for each, the end-to-end metric and workload it should move.
var perLayer = []layerMetric{
	{"stream.publish_us", "us"},
	{"stream.publish_allocs", "count"},
	{"stream.plan_us", "us"},
	{"stream.publish_share", "ratio"},
	{"stream.apply_us", "us"},
	{"stream.lookup_us", "us"},
	{"batch.repair_us", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_op", "B"},
	{"wal.sync_us", "us"},
	{"wal.records_per_sync", "count"},
	{"wal.checkpoint_us", "us"},
	{"wal.checkpoints", "count"},
	{"adpar.solve_p50_us", "us"},
	{"adpar.solve_p99_us", "us"},
	{"adpar.solve_allocs", "count"},
	{"server.handler_write_us", "us"},
	{"server.handler_alternative_us", "us"},
	{"server.handler_plan_us", "us"},
	{"server.ops_per_cycle", "count"},
	{"server.sheds", "count"},
	{"adpar_pool.wait_us", "us"},
	{"group_commit.commits_per_round", "count"},
	{"transport.self_us", "us"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_p99_us", "us"},
	{"trace.ops_per_s_untraced", "1/s"},
	{"trace.ops_per_s_traced", "1/s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.closure_frac", "ratio"},
}

// counters is the part of GET /metrics the per-layer metrics use, summed
// over tenants.
type counters struct {
	batches, batchedOps, sheds   float64
	appends, syncs, checkpoints  float64
	poolSheds, poolWaitUS        float64
	commitRounds, commitsInRound float64
}

func (in *instance) counters() (counters, error) {
	var c counters
	resp, err := in.conns[0].hc.Get(in.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	var root struct {
		Tenants map[string]struct {
			Batches        float64 `json:"coalesced_batches"`
			BatchedOps     float64 `json:"coalesced_ops"`
			ShedsQueueFull float64 `json:"sheds_queue_full"`
			ShedsDeadline  float64 `json:"sheds_deadline"`
			WAL            struct {
				Appends, Syncs, Checkpoints float64
			} `json:"wal"`
		} `json:"tenants"`
		Pool struct {
			Sheds  float64 `json:"sheds"`
			WaitUS float64 `json:"wait_us"`
		} `json:"adpar_pool"`
		GroupCommit struct {
			Rounds, Commits float64
		} `json:"group_commit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&root); err != nil {
		return c, fmt.Errorf("decoding /metrics: %w", err)
	}
	for _, t := range root.Tenants {
		c.batches += t.Batches
		c.batchedOps += t.BatchedOps
		c.sheds += t.ShedsQueueFull + t.ShedsDeadline
		c.appends += t.WAL.Appends
		c.syncs += t.WAL.Syncs
		c.checkpoints += t.WAL.Checkpoints
	}
	c.poolSheds, c.poolWaitUS = root.Pool.Sheds, root.Pool.WaitUS
	c.commitRounds, c.commitsInRound = root.GroupCommit.Rounds, root.GroupCommit.Commits
	return c, nil
}

// counterLayers turns the counter deltas over a measured phase into
// per-layer metrics.
func counterLayers(a, b counters) map[string]float64 {
	return map[string]float64{
		"server.ops_per_cycle":           ratio(b.batchedOps-a.batchedOps, b.batches-a.batches),
		"server.sheds":                   b.sheds - a.sheds + b.poolSheds - a.poolSheds,
		"adpar_pool.wait_us":             b.poolWaitUS,
		"group_commit.commits_per_round": ratio(b.commitsInRound-a.commitsInRound, b.commitRounds-a.commitRounds),
		"wal.records_per_sync":           ratio(b.appends-a.appends, b.syncs-a.syncs),
		"wal.checkpoints":                b.checkpoints - a.checkpoints,
	}
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// runtimeLayers turns runtime/metrics deltas over a measured phase of ops
// acknowledged mutations into per-layer metrics.
func runtimeLayers(a, b []metrics.Sample, ops int) map[string]float64 {
	allocKB := float64(b[0].Value.Uint64()-a[0].Value.Uint64()) / 1024
	gcCPU := b[1].Value.Float64() - a[1].Value.Float64()
	allCPU := b[2].Value.Float64() - a[2].Value.Float64()
	return map[string]float64{
		"runtime.alloc_kb_per_op": ratio(allocKB, float64(ops)),
		"runtime.gc_cpu_frac":     ratio(gcCPU, allCPU),
		"runtime.gc_pause_p99_us": 1e6 * histQuantile(a[3].Value.Float64Histogram(), b[3].Value.Float64Histogram(), 0.99),
	}
}

// histQuantile returns the q-quantile of the observations b holds beyond
// a, as the upper bound of the bucket it falls in (0 with none).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range delta {
		seen += n
		if seen >= need {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// recoverServer starts a fresh server on the instance's data directory,
// which recovers every tenant before it returns.
func recoverServer(in *instance) (*server.Server, error) {
	cfg := server.Config{Tenants: map[string]server.TenantConfig{}, DataDir: in.dir,
		WALGroupCommitWindow: groupCommit, CheckpointEvery: checkpointEvery}
	for i, n := range in.names {
		cfg.Tenants[n] = in.cfgs[i]
	}
	return server.New(cfg)
}
