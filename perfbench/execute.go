package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"stratrec/internal/server"
	"stratrec/internal/stream"
)

// execute runs one workload: set-up, the measured phase, the output
// checks and, for a traced run, the layer replay. It prints every metric
// to out and returns the result line. root holds everything the run
// writes.
func execute(s spec, seed int64, dur time.Duration, traced bool, root string, out io.Writer) (*result, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfgs := make([]server.TenantConfig, s.tenants)
	for i := range cfgs {
		cfgs[i] = catalog(s, i)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	st := stamp{Workload: s.name, Seed: seed, Traced: traced, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		TargetPool: s.pool, HostProbeMS: []float64{hostProbe()}, Extra: map[string]any{}}

	setups := s.setups
	if traced {
		setups = 1
	}
	in, setupS, err := setUp(s, seed, cfgs, work, tr, setups, &st)
	if err != nil {
		return nil, err
	}
	defer in.close() // on error paths; closing twice is harmless
	defer in.mem.free()

	m := &measurement{in: in, st: &st}
	layer := map[string]float64{}
	if !traced {
		m.phase(phaseMeasure, dur, m.prepare(1, dur)[0])
	} else if err := m.traced(dur, layer); err != nil {
		return nil, err
	}
	if !slices.Equal(in.roomNow(), in.room) {
		st.Extra["records_outgrew_reservation"] = true
	}
	st.steady(m.pool, s)
	st.HostProbeMS = append(st.HostProbeMS, hostProbe())
	if s.durable {
		in.windDown()
	}

	c := &checker{}
	plans, acks, refs := c.outputs(in, traced)
	in.close()
	var recoveryS []float64
	if s.durable {
		if recoveryS, err = c.recovery(in, acks, refs); err != nil {
			return nil, err
		}
	}
	if traced {
		rl, err := replayLayers(in, work, tr, plans)
		c.check("layer replay", err)
		for k, v := range rl {
			layer[k] = v
		}
		if err := tr.write(fmt.Sprintf("%s/spans/%s.jsonl", root, s.name)); err != nil {
			return nil, err
		}
	}

	res := report(out, s, traced, m, setupS, recoveryS, layer)
	res.Correct = len(c.errs) == 0
	if len(in.errs) > 0 {
		st.Extra["first_failures"] = in.errs
	}
	if len(c.errs) > 0 {
		st.Extra["check_failures"] = c.errs
	}
	stampLine, err := json.Marshal(map[string]stamp{"stamp": st})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(stampLine))
	for _, e := range c.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if !st.Valid {
		return nil, fmt.Errorf("%w: open pool left %d±%d (sampled %d..%d)", errInvalid, s.pool, s.clients(), st.PoolMin, st.PoolMax)
	}
	return res, nil
}

// setUp starts the server, prefills it and warms it up, setups times,
// keeping the last instance; it returns each set-up's duration.
func setUp(s spec, seed int64, cfgs []server.TenantConfig, work string, tr *tracer, setups int, st *stamp) (*instance, []float64, error) {
	var times []float64
	var in *instance
	for r := 0; r < setups; r++ {
		if in != nil {
			in.close()
			os.RemoveAll(in.dir)
		}
		start := time.Now()
		var err error
		if in, err = startInstance(s, seed, cfgs, work, tr); err != nil {
			return nil, nil, err
		}
		if err := in.prefill(); err != nil {
			in.close()
			return nil, nil, fmt.Errorf("%w (%s)", err, strings.Join(in.errs, "; "))
		}
		warm := &recorder{}
		in.drive(phaseWarmup, 0, s.warmup, warm)
		times = append(times, time.Since(start).Seconds())
		in.warmRate = float64(len(warm.samples)) / warm.wall.Seconds() / float64(s.clients())
		if len(in.errs) > 0 {
			in.close()
			return nil, nil, fmt.Errorf("set-up failed: %s", strings.Join(in.errs, "; "))
		}
	}
	return in, times, nil
}

// measurement collects the measured phases of a run.
type measurement struct {
	in    *instance
	st    *stamp
	recs  []*recorder
	pool  poolStats
	heap  uint64
	live  uint64
	peaks []float64
}

// prepare returns a recorder for each of n measured phases that together
// last d, reserves room for everything they record outside the heap, and
// collects the garbage of the set-up.
func (m *measurement) prepare(n int, d time.Duration) []*recorder {
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = &recorder{}
	}
	m.in.reserve(d, recs...)
	runtime.GC()
	return recs
}

// phase drives one measured phase into rec while sampling heap and pools.
func (m *measurement) phase(ph phase, d time.Duration, rec *recorder) {
	sm := m.in.startSampler(&m.pool, d)
	rt0 := readRuntime()
	m.in.drive(ph, d, 0, rec)
	rt1 := readRuntime()
	sm.finish()
	m.st.GC = append(m.st.GC, gcAccount{Phase: ph.String(), Cycles: rt1[4].Value.Uint64() - rt0[4].Value.Uint64(),
		CPUFrac: ratio(rt1[1].Value.Float64()-rt0[1].Value.Float64(), rt1[2].Value.Float64()-rt0[2].Value.Float64())})
	m.heap = max(m.heap, sm.heap)
	m.live = max(m.live, sm.live)
	for _, v := range sm.peaks {
		if v > 0 {
			m.peaks = append(m.peaks, float64(v))
		}
	}
	m.recs = append(m.recs, rec)
}

// traced measures the first half untraced, for the counter and runtime
// deltas and the untraced throughput, and the second half with spans.
func (m *measurement) traced(dur time.Duration, layer map[string]float64) error {
	recs := m.prepare(2, dur)
	plain, withSpans := recs[0], recs[1]
	c0, err := m.in.counters()
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	m.phase(phaseMeasure, dur/2, plain)
	rt1 := readRuntime()
	c1, err := m.in.counters()
	if err != nil {
		return err
	}
	m.in.tr.on.Store(true)
	m.phase(phaseTraced, dur/2, withSpans)
	m.in.tr.on.Store(false)
	for k, v := range counterLayers(c0, c1) {
		layer[k] = v
	}
	for k, v := range runtimeLayers(rt0, rt1, ackedOps(plain)) {
		layer[k] = v
	}
	for k, v := range m.in.tr.httpLayers() {
		layer[k] = v
	}
	plainOps, tracedOps := ackedRate(plain), ackedRate(withSpans)
	layer["trace.ops_per_s_untraced"] = plainOps
	layer["trace.ops_per_s_traced"] = tracedOps
	layer["trace.overhead_frac"] = ratio(plainOps-tracedOps, plainOps)
	return nil
}

// steady records the sampled open pool; the run is valid only if every
// sample stayed within the target ± clients.
func (st *stamp) steady(p poolStats, s spec) {
	st.PoolSample, st.PoolMin, st.PoolMax = p.n, p.min, p.max
	st.PoolMean = ratio(float64(p.sum), float64(p.n))
	st.Valid = p.n > 0 && p.min >= s.pool-s.clients() && p.max <= s.pool+s.clients()
}

// checker collects failed output checks.
type checker struct{ errs []string }

func (c *checker) check(what string, err error) {
	if err != nil {
		c.errs = append(c.errs, what+": "+err.Error())
	}
}

// outputs checks every tenant's final plan against the naive replay and
// the acknowledged state, and every alternative against a fresh solve.
func (c *checker) outputs(in *instance, traced bool) ([]server.PlanResponse, [][]ack, []stream.Plan) {
	plans := make([]server.PlanResponse, len(in.names))
	acks := make([][]ack, len(in.names))
	refs := make([]stream.Plan, len(in.names))
	for i, name := range in.names {
		plan, err := in.conns[i].c.Plan(context.Background(), name)
		if err != nil {
			c.check(name+" final plan", err)
			continue
		}
		plans[i] = plan
		if acks[i], err = in.acks(i); err != nil {
			c.check(name+" ack order", err)
			continue
		}
		refs[i], err = naivePlan(in.cfgs[i], acks[i])
		c.check(name+" naive replay", err)
		if err == nil {
			c.check(name+" plan vs naive replay", samePlan(plan, refs[i]))
		}
		c.check(name+" acknowledged state", sameState(plan, acks[i]))
		if !traced {
			// The traced run checks them in the layer replay.
			alts, err := in.answers(i)
			if err == nil {
				err = checkAlternatives(in.cfgs[i], alts)
			}
			c.check(name+" alternatives", err)
		}
	}
	return plans, acks, refs
}

// recovery times three fresh servers recovering the closed instance's data
// directory and checks each recovered tenant against the acknowledged
// state.
func (c *checker) recovery(in *instance, acks [][]ack, refs []stream.Plan) ([]float64, error) {
	var times []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		srv, err := recoverServer(in)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		for i, name := range in.names {
			t, err := srv.Tenant(name)
			if err != nil {
				c.check("recovery", err)
				continue
			}
			got := snapshotPlan(t.Snapshot())
			c.check(name+" recovered plan", samePlan(got, refs[i]))
			c.check(name+" recovered state", sameState(got, acks[i]))
		}
		srv.Close()
	}
	return times, nil
}

// report prints every metric and returns the result with the metrics the
// run reports: the end-to-end ones untraced, the per-layer ones traced.
// End-to-end metrics come from the untraced measured phase.
func report(out io.Writer, s spec, traced bool, m *measurement, setupS, recoveryS []float64, layer map[string]float64) *result {
	p := printer{out}
	res := &result{Metrics: map[string]metric{}}
	for _, r := range m.recs {
		for _, smp := range r.samples {
			res.Attempted += smp.ops
			res.Failed += smp.ops - smp.ok
		}
	}
	base := m.recs[0]
	isWrite := func(k opKind) bool { return k.mutates() }
	anyKind := func(opKind) bool { return true }
	isAlt := func(k opKind) bool { return k == opAlternative }
	isPlan := func(k opKind) bool { return k == opPlan }
	count := func(keep func(opKind) bool) string {
		return fmt.Sprintf("n=%d", len(latencies(base, keep)))
	}
	windowed := func(keep func(opKind) bool) string {
		return fmt.Sprintf("median over %v windows, %s", window, count(keep))
	}
	acked := ackedOps(base)
	e2e := []struct {
		name  string
		value float64
		unit  string
		note  string
	}{
		{"setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups", len(setupS))},
		{"ops_per_s", float64(acked) / base.wall.Seconds(), "1/s", fmt.Sprintf("%d acknowledged mutations", acked)},
		{"write_p50_ms", windowedQuantile(base, isWrite, 0.5), "ms", windowed(isWrite)},
		{"write_p90_ms", windowedQuantile(base, isWrite, 0.9), "ms", windowed(isWrite)},
		{"request_p90_ms", windowedQuantile(base, anyKind, 0.9), "ms", windowed(anyKind)},
		{"heap_peak_mb", median(m.peaks) / (1 << 20), "MB", fmt.Sprintf("median of %d %v windows' peak", len(m.peaks), window)},
	}
	st := m.st
	fmt.Fprintf(out, "# %s seed=%d traced=%v nproc=%d GOMAXPROCS=%d %s\n", s.name, st.Seed, traced, st.NProc, st.GOMAXPROCS, st.GoVersion)
	for _, e := range e2e {
		p.metric(e.name, e.value, e.unit, e.note)
		if !traced {
			res.Metrics[e.name] = metric{e.value, e.unit}
		}
	}
	// Printed, not in BENCHMARK.json: the p99s spread too much from run
	// to run to hold a bound (README.md), and the read latencies and
	// recovery exist on one workload only.
	p.metric("write_p99_ms", quantile(latencies(base, isWrite), 0.99), "ms", count(isWrite))
	p.metric("request_p99_ms", quantile(latencies(base, anyKind), 0.99), "ms", count(anyKind))
	p.metric("heap_max_mb", float64(m.heap)/(1<<20), "MB", "peak over the whole phase")
	p.metric("heap_live_peak_mb", float64(m.live)/(1<<20), "MB", "peak live heap marked by a collection")
	if s.mixed {
		p.metric("alternative_p50_ms", quantile(latencies(base, isAlt), 0.5), "ms", count(isAlt))
		p.metric("alternative_p99_ms", quantile(latencies(base, isAlt), 0.99), "ms", count(isAlt))
		p.metric("plan_read_p50_ms", quantile(latencies(base, isPlan), 0.5), "ms", count(isPlan))
		p.metric("plan_read_p99_ms", quantile(latencies(base, isPlan), 0.99), "ms", count(isPlan))
	}
	if len(recoveryS) > 0 {
		p.metric("recovery_s", median(recoveryS), "s", fmt.Sprintf("median of %d recoveries of a %d-record tail", len(recoveryS), s.tail))
	}
	p.metric("error_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", fmt.Sprintf("%d of %d ops failed", res.Failed, res.Attempted))
	if traced {
		for _, lm := range perLayer {
			v := layer[lm.name]
			p.metric(lm.name, v, lm.unit, "")
			res.Metrics[lm.name] = metric{v, lm.unit}
		}
	}
	return res
}
