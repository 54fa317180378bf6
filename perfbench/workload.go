package main

import (
	"fmt"
	"math/rand"
	"time"

	"stratrec/internal/batch"
	"stratrec/internal/server"
	"stratrec/internal/strategy"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// spec is one workload: the server configuration, the steady open pool it
// is held at, and the traffic mix sent against it.
type spec struct {
	name       string
	tenants    int // one closed-loop client per tenant
	strategies int // catalog size per tenant
	pool       int // target open pool per tenant
	k          int // cardinality constraint of every request
	// body is the number of ops per mutating HTTP request: 1 sends each op
	// to its single-op endpoint, more sends POST /ops bodies.
	body int
	// drift is the probability that a write is an availability update.
	drift   float64
	durable bool
	// coalesce and opBuffer are the tenant loop settings (0 = default).
	coalesce, opBuffer int
	// mixed sends tenant 0 the read-beside-write mix over two connections,
	// writes on one and reads on the other; false runs one closed-loop
	// client per tenant.
	mixed bool
	// tight is the share of submissions drawn from the ADPaR band. Those
	// requests are infeasible, so they stay displaced and always have an
	// alternative.
	tight float64
	// warmup is the number of requests per client sent after the prefill
	// and before measuring, so connections, heap growth and the lazily
	// compiled ADPaR pair metadata are in place.
	warmup int
	// setups is how often a run repeats the set-up to report its median.
	setups int
	// tail is the WAL record count since the last checkpoint at which a
	// durable run stops before recovery is timed, so every run recovers the
	// same checkpoint plus the same length of log.
	tail int
}

const (
	prefillBody     = 32    // ops per POST /ops body while prefilling
	checkpointEvery = 10000 // records between auto-checkpoints (the serve default)
	groupCommit     = 500 * time.Microsecond
	initialW        = 0.7
)

// workloads lists the benchmark's workloads by name. Why each exists is in
// BENCHMARK.json and README.md.
var workloads = map[string]spec{
	"churn-10k": {
		name: "churn-10k", tenants: 2, strategies: 200, pool: 10000, k: 3,
		body: 1, drift: 0.05, warmup: 20, setups: 5,
	},
	"durable-batch-1k": {
		name: "durable-batch-1k", tenants: 2, strategies: 200, pool: 1000, k: 3,
		body: 32, drift: 0.05, durable: true, coalesce: 256, opBuffer: 256,
		warmup: 20, setups: 5, tail: checkpointEvery / 10,
	},
	// A closed loop, not the open loop at a fixed rate it was designed
	// as: on a shared 2-vCPU host an open loop below capacity leaves the
	// CPUs idle between requests, and every wake-up then waits for the
	// host, so its latencies moved by a third or more from run to run
	// (README.md).
	"displaced-mix": {
		name: "displaced-mix", tenants: 1, strategies: 2000, pool: 1000, k: 3,
		body: 1, mixed: true, tight: 0.9, warmup: 200, setups: 5,
	},
}

// tiny shrinks a workload for the benchmark's own tests while keeping its
// shape: the same mix, durability and loop kind.
func (s spec) tiny() spec {
	s.pool = 40
	s.strategies = 30
	if s.mixed {
		s.strategies = 60
	}
	s.warmup = 10
	s.setups = 1
	if s.durable {
		s.tail = 20
	}
	return s
}

// clients is the number of requests that can be in flight at once, which
// bounds how far the open pool can stray from its target.
func (s spec) clients() int {
	if s.mixed {
		return mixedConns
	}
	return s.tenants
}

// opKind is one request kind of the traffic mix.
type opKind uint8

const (
	opSubmit opKind = iota
	opRevoke
	opDrift
	opAlternative
	opPlan
)

func (k opKind) mutates() bool { return k <= opDrift }

func (k opKind) String() string {
	return [...]string{"submit", "revoke", "availability", "alternative", "plan"}[k]
}

// op is one generated request.
type op struct {
	kind opKind
	id   string           // submit, revoke, alternative
	req  strategy.Request // submit
	w    float64          // availability
	// asked marks a submit of the mix whose alternative is queried next.
	asked bool
	// seq numbers the tenant's generated requests from 1.
	seq int
}

// catalogSeed draws every run's catalogs. The catalogs are the
// benchmark's fixed data set and --seed draws only the traffic sent
// against them: the cost of an ADPaR solve depends on the catalog far
// more than on the request, so catalogs drawn per seed moved the
// displaced-mix latencies between seeds by more than the metrics' bounds.
const catalogSeed = 1

// catalog builds tenant i's strategy set and availability models.
func catalog(s spec, i int) server.TenantConfig {
	rng := rand.New(rand.NewSource(catalogSeed*7919 + int64(i)))
	gen := synth.DefaultConfig(synth.Uniform)
	set := gen.Strategies(rng, s.strategies)
	return server.TenantConfig{
		Set:       set,
		Models:    gen.Models(rng, set),
		Mode:      workforce.MaxCase,
		Objective: batch.Throughput,
		InitialW:  initialW,
		Coalesce:  s.coalesce,
		OpBuffer:  s.opBuffer,
	}
}

// generator yields one tenant's request stream. It is a pure function of
// the seed: the stream never depends on responses, so the same seed always
// sends the same requests. Writes keep the open pool at its target by
// pairing every submit with a revoke of the oldest open request.
type generator struct {
	s      spec
	rng    *rand.Rand
	cfg    synth.Config
	prefix string
	// submitted and revoked count the submit and revoke ops generated so
	// far; request n is named prefix+n and the oldest open one is
	// revoked+1.
	submitted, revoked int
	// emitted counts the requests next has returned.
	emitted int
	// slot walks the mix's pattern.
	slot     int
	lastSub  string
	lastWide bool
}

func newGenerator(s spec, seed int64, tenant int) *generator {
	return &generator{
		s:      s,
		rng:    rand.New(rand.NewSource(seed*104729 + int64(tenant) + 1)),
		cfg:    synth.DefaultConfig(synth.Uniform),
		prefix: fmt.Sprintf("t%d-", tenant),
	}
}

// next returns the tenant's next request: the submits that prefill the
// pool, then the workload's mix. Requests are numbered in this order, so
// the sequence number of an acknowledged op is enough to generate it
// again.
func (g *generator) next() op {
	var o op
	switch {
	case g.emitted < g.s.pool:
		o = g.submit()
	case g.s.mixed:
		o = g.mix()
	default:
		o = g.write()
	}
	g.emitted++
	o.seq = g.emitted
	return o
}

func (g *generator) submit() op {
	g.submitted++
	id := fmt.Sprintf("%s%d", g.prefix, g.submitted)
	var r strategy.Request
	g.lastWide = g.s.tight == 0 || g.rng.Float64() >= g.s.tight
	if g.lastWide {
		r = g.cfg.Requests(g.rng, 1, g.s.k)[0]
	} else {
		r = g.cfg.ADPaRRequest(g.rng, g.s.k)
	}
	r.ID = id
	g.lastSub = id
	return op{kind: opSubmit, id: id, req: r, asked: g.s.mixed && !g.lastWide}
}

func (g *generator) revoke() op {
	g.revoked++
	return op{kind: opRevoke, id: fmt.Sprintf("%s%d", g.prefix, g.revoked)}
}

// write returns the next mutation of the closed-loop churn: submit and
// revoke alternate, with the configured share of availability drift.
func (g *generator) write() op {
	if g.s.drift > 0 && g.rng.Float64() < g.s.drift {
		return op{kind: opDrift, w: 0.5 + 0.4*g.rng.Float64()}
	}
	if g.submitted-g.revoked <= g.s.pool {
		return g.submit()
	}
	return g.revoke()
}

// mix returns the next request of the read-beside-write mix. It follows
// a five-slot pattern — submit, the alternative for that submit (a plan
// summary when it was drawn from the regular band and might be served),
// revoke the oldest, two plan summaries — so 40% of requests write and 60%
// read.
func (g *generator) mix() op {
	var o op
	switch g.slot % 5 {
	case 0:
		o = g.submit()
	case 1:
		if g.lastWide {
			o = op{kind: opPlan}
		} else {
			o = op{kind: opAlternative, id: g.lastSub}
		}
	case 2:
		o = g.revoke()
	default:
		o = op{kind: opPlan}
	}
	g.slot++
	return o
}
