package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"stratrec/internal/client"
	"stratrec/internal/server"
	"stratrec/internal/strategy"
)

// mixedConns is the mix's connection count: one for writes, one for
// reads. The other workloads use one connection per client.
const mixedConns = 2

// phase tags what part of a run an acknowledged op belongs to.
type phase uint8

const (
	phasePrefill phase = iota
	phaseWarmup
	phaseMeasure // measured, tracing off
	phaseTraced  // measured, tracing on
	phaseWind    // durable wind-down to the recovery tail
)

func (p phase) measured() bool { return p == phaseMeasure || p == phaseTraced }

func (p phase) String() string {
	return [...]string{"prefill", "warmup", "measure", "traced", "wind-down"}[p]
}

// ack is one acknowledged mutation with the plan epoch its ack returned.
type ack struct {
	epoch uint64
	call  int // the tenant's HTTP request that carried it: one replay cycle
	phase phase
	op    op
}

// callMark is where one HTTP request's acknowledged ops start in a
// tenant's log.
type callMark struct {
	start int
	phase phase
}

// maxAltStrategies bounds the strategies an alternative may name; every
// workload asks for k = 3.
const maxAltStrategies = 8

// altRecord is one answered alternative query as the run records it:
// without pointers, so it can live outside the heap (see arena). The
// request is regenerated from its submit's sequence number afterwards.
type altRecord struct {
	seq      int32 // sequence number of the submit it answers
	phase    phase
	nStrat   int8
	covered  int32
	after    uint64 // epoch of the request's own submit
	quality  float64
	cost     float64
	latency  float64
	distance float64
	strat    [maxAltStrategies]int32
}

// altAnswer is one answered alternative query with its request.
type altAnswer struct {
	req   strategy.Request
	after uint64
	phase phase
	resp  client.AlternativeResponse
}

// tenantLog is everything one tenant acknowledged or answered. It keeps
// only the sequence number of each acknowledged op, in ack order; acks
// regenerates the ops afterwards. Before a measured phase its slices are
// moved outside the heap (instance.reserve), so they neither count in
// the heap that is measured nor pace its collector.
type tenantLog struct {
	mu    sync.Mutex
	seqs  []int32
	calls []callMark
	epoch uint64 // epoch of the last ack
	// order records the first ack whose epoch did not follow the
	// previous one: the log no longer gives the epoch order.
	order error
	alts  []altRecord
}

// sample is one timed request.
type sample struct {
	kind opKind
	lat  time.Duration
	ops  int           // ops the request carried
	ok   int           // ops acknowledged
	done time.Duration // completion, from the start of the phase
}

// recorder collects one phase's samples. A measured phase's recorder
// lives outside the heap like the tenant logs.
type recorder struct {
	mu      sync.Mutex
	samples []sample
	start   time.Time
	wall    time.Duration
}

func (r *recorder) add(s sample) {
	if r == nil {
		return
	}
	s.done = time.Since(r.start)
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// instance is one set-up server with its clients and request generators.
type instance struct {
	s     spec
	seed  int64
	names []string
	cfgs  []server.TenantConfig
	srv   *server.Server
	hs    *http.Server
	base  string
	dir   string // durable data directory
	gens  []*generator
	logs  []*tenantLog
	// conns are the client connections: one per tenant, or for the mix
	// conns[0] carries the writes and conns[1] the reads.
	conns []*conn
	tr    *tracer
	// asked is the outcome of the last submit whose alternative is
	// queried, which may fall in the next phase.
	asked *submitWait
	// mem holds the records reserved outside the heap.
	mem arena
	// warmRate is the warm-up's request rate per client.
	warmRate float64
	// recs are the measured phases' recorders and room the capacities
	// reserved for them and the logs (see reserve).
	recs []*recorder
	room []int

	emu  sync.Mutex
	errs []string // first failures, for diagnostics
}

// conn is one client connection. trace is the X-Trace-Id its next call
// sends; only the goroutine that owns the connection touches it.
type conn struct {
	c     *client.Client
	hc    *http.Client
	trace string
}

func newConn(base string) *conn {
	cn := &conn{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
	cn.c = client.New(base, client.WithHTTPClient(cn.hc), client.WithTrace(func() string { return cn.trace }))
	return cn
}

// submitWait carries a mix submit's outcome to the alternative
// query that follows it.
type submitWait struct {
	done  chan struct{}
	ok    bool
	epoch uint64
	seq   int // the submit's sequence number
}

// startInstance starts a server for cfgs on a loopback listener. With a
// tracer, the handler is wrapped so handler spans can be recorded.
func startInstance(s spec, seed int64, cfgs []server.TenantConfig, root string, tr *tracer) (*instance, error) {
	in := &instance{s: s, seed: seed, cfgs: cfgs, tr: tr}
	scfg := server.Config{Tenants: map[string]server.TenantConfig{}}
	for i, c := range cfgs {
		name := fmt.Sprintf("tenant-%d", i)
		in.names = append(in.names, name)
		scfg.Tenants[name] = c
		in.gens = append(in.gens, newGenerator(s, seed, i))
		in.logs = append(in.logs, &tenantLog{})
	}
	if s.durable {
		dir, err := os.MkdirTemp(root, "data-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
		scfg.DataDir = dir
		scfg.WALGroupCommitWindow = groupCommit
		scfg.CheckpointEvery = checkpointEvery
	}
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	in.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	in.hs = &http.Server{Handler: h}
	go in.hs.Serve(ln)
	in.base = "http://" + ln.Addr().String()
	for i := 0; i < s.clients(); i++ {
		in.conns = append(in.conns, newConn(in.base))
	}
	return in, nil
}

// close shuts the HTTP layer down, then the tenant loops.
func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	in.hs.Shutdown(ctx)
	in.srv.Close()
	for _, cn := range in.conns {
		cn.hc.CloseIdleConnections()
	}
}

func (in *instance) fail(format string, args ...any) {
	in.emu.Lock()
	if len(in.errs) < 5 {
		in.errs = append(in.errs, fmt.Sprintf(format, args...))
	}
	in.emu.Unlock()
}

// outcome is one op's result.
type outcome struct {
	ok    bool
	epoch uint64
}

// write sends ops as one mutating request of tenant i through c.
func (in *instance) write(cn *conn, i int, ops []op) []outcome {
	c, ctx := cn.c, context.Background()
	tenant := in.names[i]
	out := make([]outcome, len(ops))
	if len(ops) == 1 {
		o := ops[0]
		var epoch uint64
		var err error
		switch o.kind {
		case opSubmit:
			var r client.SubmitResponse
			r, err = c.Submit(ctx, tenant, client.SubmitRequest{
				ID: o.id, Quality: o.req.Quality, Cost: o.req.Cost, Latency: o.req.Latency, K: o.req.K})
			epoch = r.Epoch
		case opRevoke:
			var r client.EpochResponse
			r, err = c.Revoke(ctx, tenant, o.id)
			epoch = r.Epoch
		case opDrift:
			var r client.EpochResponse
			r, err = c.SetAvailability(ctx, tenant, o.w)
			epoch = r.Epoch
		}
		if err != nil {
			in.fail("%s %s %s: %v", tenant, o.kind, o.id, err)
			return out
		}
		out[0] = outcome{ok: true, epoch: epoch}
		return out
	}
	var b client.Batch
	for _, o := range ops {
		switch o.kind {
		case opSubmit:
			b.Submit(o.id, o.req.Quality, o.req.Cost, o.req.Latency, o.req.K)
		case opRevoke:
			b.Revoke(o.id)
		case opDrift:
			b.SetAvailability(o.w)
		}
	}
	resp, err := c.Send(ctx, tenant, &b)
	if err == nil && len(resp.Results) != len(ops) {
		err = fmt.Errorf("%d results for %d ops", len(resp.Results), len(ops))
	}
	if err != nil {
		in.fail("%s /ops body of %d: %v", tenant, len(ops), err)
		return out
	}
	for j, r := range resp.Results {
		if r.Status >= 300 {
			msg := ""
			if r.Error != nil {
				msg = r.Error.Message
			}
			in.fail("%s /ops %s %s: status %d %s", tenant, ops[j].kind, ops[j].id, r.Status, msg)
			continue
		}
		out[j] = outcome{ok: true, epoch: r.Epoch}
	}
	return out
}

// note records the acknowledged ops of one request in the tenant's log.
func (in *instance) note(i int, ph phase, ops []op, res []outcome) int {
	l := in.logs[i]
	l.mu.Lock()
	defer l.mu.Unlock()
	start := len(l.seqs)
	for j, r := range res {
		if !r.ok {
			continue
		}
		if r.epoch != l.epoch+1 && l.order == nil {
			l.order = fmt.Errorf("%s %s acknowledged at epoch %d after epoch %d", ops[j].kind, ops[j].id, r.epoch, l.epoch)
		}
		l.epoch = r.epoch
		l.seqs = append(l.seqs, int32(ops[j].seq))
	}
	if n := len(l.seqs) - start; n > 0 {
		l.calls = append(l.calls, callMark{start: start, phase: ph})
		return n
	}
	return 0
}

// acks regenerates tenant i's acknowledged ops, in ack order, from their
// sequence numbers. The log has checked that ack order is epoch order, so
// the j-th ack carries epoch j+1.
func (in *instance) acks(i int) ([]ack, error) {
	l := in.logs[i]
	if l.order != nil {
		return nil, l.order
	}
	g := newGenerator(in.s, in.seed, i)
	out := make([]ack, 0, len(l.seqs))
	c := 0
	for j, seq := range l.seqs {
		for c+1 < len(l.calls) && l.calls[c+1].start <= j {
			c++
		}
		if int(seq) <= g.emitted {
			return nil, fmt.Errorf("op %d acknowledged after op %d", seq, g.emitted)
		}
		var o op
		for g.emitted < int(seq) {
			o = g.next()
		}
		out = append(out, ack{epoch: uint64(j + 1), call: c, phase: l.calls[c].phase, op: o})
	}
	return out, nil
}

// answers expands tenant i's answered alternatives, regenerating each
// request from its submit's sequence number.
func (in *instance) answers(i int) ([]altAnswer, error) {
	g := newGenerator(in.s, in.seed, i)
	out := make([]altAnswer, 0, len(in.logs[i].alts))
	for _, r := range in.logs[i].alts {
		if int(r.seq) <= g.emitted {
			return nil, fmt.Errorf("alternative for op %d answered after one for op %d", r.seq, g.emitted)
		}
		var o op
		for g.emitted < int(r.seq) {
			o = g.next()
		}
		if o.kind != opSubmit {
			return nil, fmt.Errorf("alternative answered for op %d, a %s", r.seq, o.kind)
		}
		resp := client.AlternativeResponse{ID: o.id, Quality: r.quality, Cost: r.cost, Latency: r.latency,
			Distance: r.distance, Covered: int(r.covered), Strategies: make([]int, r.nStrat)}
		for j := range resp.Strategies {
			resp.Strategies[j] = int(r.strat[j])
		}
		out = append(out, altAnswer{req: o.req, after: r.after, phase: r.phase, resp: resp})
	}
	return out, nil
}

// reserve moves rec and every tenant log outside the heap with room for
// a measured phase of length d, so that nothing the run records during
// the phase grows the heap it measures. The room is sized by the warm-up
// request rate, generously because unwritten pages cost nothing.
func (in *instance) reserve(d time.Duration, recs ...*recorder) {
	n := int(8*in.warmRate*d.Seconds()) + 4096 // requests one client may send in d
	for _, rec := range recs {
		rec.samples = reserve(&in.mem, rec.samples, n*in.s.clients())
	}
	for _, l := range in.logs {
		l.mu.Lock()
		l.seqs = reserve(&in.mem, l.seqs, n*in.s.body)
		l.calls = reserve(&in.mem, l.calls, n)
		if in.s.mixed {
			l.alts = reserve(&in.mem, l.alts, n/4)
		}
		l.mu.Unlock()
	}
	in.recs = recs
	in.room = in.roomNow()
}

// roomNow returns the capacity of every reserved slice; a slice that
// outgrew its reservation has moved into the heap.
func (in *instance) roomNow() []int {
	var out []int
	for _, rec := range in.recs {
		rec.mu.Lock()
		out = append(out, cap(rec.samples))
		rec.mu.Unlock()
	}
	for _, l := range in.logs {
		l.mu.Lock()
		out = append(out, cap(l.seqs), cap(l.calls), cap(l.alts))
		l.mu.Unlock()
	}
	return out
}

// prefill fills every tenant's open pool to its target through POST /ops
// bodies, the tenants in parallel.
func (in *instance) prefill() error {
	errs := make([]error, len(in.names))
	var wg sync.WaitGroup
	for i := range in.names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := in.gens[i]
			for g.emitted < in.s.pool {
				ops := make([]op, 0, prefillBody)
				for len(ops) < prefillBody && g.emitted < in.s.pool {
					ops = append(ops, g.next())
				}
				res := in.write(in.conns[i], i, ops)
				if in.note(i, phasePrefill, ops, res) != len(ops) {
					errs[i] = fmt.Errorf("prefill of %s failed", in.names[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// drive sends the workload's traffic for one phase: until the deadline
// when count is 0, else count requests per client.
func (in *instance) drive(ph phase, dur time.Duration, count int, rec *recorder) {
	start := time.Now()
	if rec != nil {
		rec.start = start
	}
	if in.s.mixed {
		in.mixLoop(ph, dur, count, rec)
	} else {
		var wg sync.WaitGroup
		for i := range in.names {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				in.closedClient(i, ph, start.Add(dur), count, rec)
			}(i)
		}
		wg.Wait()
	}
	if rec != nil {
		rec.wall = time.Since(start)
	}
}

// closedClient is one closed-loop client: it sends tenant i's next
// mutation (or body of mutations) as soon as the previous one returns.
func (in *instance) closedClient(i int, ph phase, until time.Time, count int, rec *recorder) {
	for n := 0; ; n++ {
		if count > 0 && n >= count || count == 0 && !time.Now().Before(until) {
			return
		}
		ops := make([]op, 0, in.s.body)
		for len(ops) < in.s.body {
			ops = append(ops, in.gens[i].next())
		}
		start := time.Now()
		n := in.send(in.conns[i], i, ph, ops, nil)
		rec.add(sample{kind: ops[0].kind, lat: time.Since(start), ops: len(ops), ok: n})
	}
}

// send sends one request of tenant i — a write carrying ops, or a single
// read — records what it acknowledged or answered, and returns how many
// ops succeeded. In the traced phase it is wrapped in a client span. w,
// for a mix submit or its alternative, links the two.
func (in *instance) send(cn *conn, i int, ph phase, ops []op, w *submitWait) int {
	if ph == phaseTraced {
		sp := in.tr.clientSpan(ops[0].kind)
		cn.trace = sp.Trace
		defer func() {
			in.tr.end(sp)
			cn.trace = ""
		}()
	}
	tenant := in.names[i]
	switch o := ops[0]; o.kind {
	case opAlternative:
		<-w.done
		if !w.ok {
			return 0
		}
		resp, err := cn.c.Alternative(context.Background(), tenant, o.id)
		if err == nil && (resp.ID != o.id || len(resp.Strategies) > maxAltStrategies) {
			err = fmt.Errorf("answered for %s with %d strategies", resp.ID, len(resp.Strategies))
		}
		if err != nil {
			in.fail("alternative %s: %v", o.id, err)
			return 0
		}
		r := altRecord{seq: int32(w.seq), phase: ph, nStrat: int8(len(resp.Strategies)), covered: int32(resp.Covered),
			after: w.epoch, quality: resp.Quality, cost: resp.Cost, latency: resp.Latency, distance: resp.Distance}
		for j, v := range resp.Strategies {
			r.strat[j] = int32(v)
		}
		l := in.logs[i]
		l.mu.Lock()
		l.alts = append(l.alts, r)
		l.mu.Unlock()
		return 1
	case opPlan:
		resp, err := cn.c.PlanSummary(context.Background(), tenant)
		if err != nil {
			in.fail("plan summary: %v", err)
			return 0
		}
		if resp.Serving+resp.Displaced != resp.Open {
			in.fail("plan summary: %d serving + %d displaced != %d open", resp.Serving, resp.Displaced, resp.Open)
			return 0
		}
		return 1
	}
	res := in.write(cn, i, ops)
	if w != nil {
		w.ok, w.epoch = res[0].ok, res[0].epoch
		close(w.done)
	}
	return in.note(i, ph, ops, res)
}

// windDown sends unmeasured writes until every tenant's log holds exactly
// the workload's tail of records since its last checkpoint, so recovery
// always replays the same amount of log.
func (in *instance) windDown() {
	for i := range in.names {
		for {
			n := len(in.logs[i].seqs)
			left := (in.s.tail - n%checkpointEvery + checkpointEvery) % checkpointEvery
			if left == 0 {
				break
			}
			ops := make([]op, 0, in.s.body)
			for len(ops) < in.s.body && len(ops) < left {
				ops = append(ops, in.gens[i].next())
			}
			in.send(in.conns[i], i, phaseWind, ops, nil)
		}
	}
}

// mixReq is one request of the mix with the submit it waits for.
type mixReq struct {
	o op
	w *submitWait
}

// mixLoop sends tenant 0's mix for dur (or count requests): writes on one
// connection and reads on the other, each in generation order, and each
// connection sends its next request as soon as its previous one returns.
// An alternative is timed from when its connection takes it, so its
// latency includes any wait for its submit's ack.
func (in *instance) mixLoop(ph phase, dur time.Duration, count int, rec *recorder) {
	queues := [2]chan mixReq{make(chan mixReq), make(chan mixReq)}
	var wg sync.WaitGroup
	for q := range queues {
		wg.Add(1)
		go func(cn *conn, q chan mixReq) {
			defer wg.Done()
			for a := range q {
				start := time.Now()
				n := in.send(cn, 0, ph, []op{a.o}, a.w)
				rec.add(sample{kind: a.o.kind, lat: time.Since(start), ops: 1, ok: n})
			}
		}(in.conns[q], queues[q])
	}
	until := time.Now().Add(dur)
	for n := 0; count > 0 && n < count || count == 0 && time.Now().Before(until); n++ {
		a := mixReq{o: in.gens[0].next()}
		switch {
		case a.o.asked:
			in.asked = &submitWait{done: make(chan struct{}), seq: a.o.seq}
			a.w = in.asked
		case a.o.kind == opAlternative:
			a.w = in.asked
		}
		if a.o.kind.mutates() {
			queues[0] <- a
		} else {
			queues[1] <- a
		}
	}
	close(queues[0])
	close(queues[1])
	wg.Wait()
}

// sampler watches the process heap and every tenant's open pool while a
// phase is measured. The pool is read from the tenants' published
// snapshots in-process, so it adds no request to the server.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	heap  uint64   // heap objects, unswept garbage included
	live  uint64   // live heap marked by the last collection
	peaks []uint64 // per window
}

// poolStats summarises the sampled open pools.
type poolStats struct {
	n, min, max, sum int
}

func (p *poolStats) add(v int) {
	if p.n == 0 || v < p.min {
		p.min = v
	}
	if p.n == 0 || v > p.max {
		p.max = v
	}
	p.n++
	p.sum += v
}

// startSampler starts sampling a phase of length d: the heap's peak over
// the phase and in each of its windows, and the open pools, which are
// added to pool; nothing else may touch pool until finish returns.
func (in *instance) startSampler(pool *poolStats, d time.Duration) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{}),
		peaks: make([]uint64, 0, windowOf(d, d)+1)}
	start := time.Now()
	tenants := make([]*server.Tenant, len(in.names))
	for i, n := range in.names {
		tenants[i], _ = in.srv.Tenant(n)
	}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > sm.heap {
				sm.heap = v
			}
			w := windowOf(time.Since(start), d)
			for len(sm.peaks) <= w {
				sm.peaks = append(sm.peaks, 0)
			}
			sm.peaks[w] = max(sm.peaks[w], heap[0].Value.Uint64())
			if v := heap[1].Value.Uint64(); v > sm.live {
				sm.live = v
			}
			if n%4 == 0 {
				for _, t := range tenants {
					pool.add(len(t.Snapshot().Requests))
				}
			}
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return sm
}

func (sm *sampler) finish() {
	close(sm.stop)
	<-sm.done
}
