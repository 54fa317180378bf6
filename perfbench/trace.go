package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stratrec/internal/adpar"
	"stratrec/internal/server"
	"stratrec/internal/stream"
	"stratrec/internal/wal"
)

// span is one timed call at a layer boundary. Spans of one HTTP request
// share Trace; replay spans point at their cycle through Parent.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	on    atomic.Bool // handler spans are recorded only while on
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// clientSpan opens the span of one client call; its trace ID travels to
// the server in X-Trace-Id.
func (t *tracer) clientSpan(k opKind) *span {
	id := t.next.Add(1)
	return &span{Name: "client." + k.String(), ID: id, Trace: fmt.Sprintf("bench-%d", id), Start: t.now()}
}

func (t *tracer) end(s *span) {
	s.End = t.now()
	t.add(*s)
}

// wrap times the server's handler for every request sent while tracing is
// on. The span is linked to its client span by the request's trace ID.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Name: "server." + routeClass(r), Trace: r.Header.Get(server.TraceHeader), Start: start, End: t.now()})
	})
}

func routeClass(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/alternative"):
		return "alternative"
	case strings.HasSuffix(r.URL.Path, "/plan"):
		return "plan"
	}
	return "write"
}

// httpLayers splits the traced HTTP phase into handler time per route
// class and transport self time: a client span minus the handler span
// that shares its trace ID. It links each handler span to its client span.
func (t *tracer) httpLayers() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	clients := map[string]span{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "client.") {
			clients[s.Trace] = s
		}
	}
	byClass := map[string][]float64{}
	var self []float64
	for i, s := range t.spans {
		if !strings.HasPrefix(s.Name, "server.") {
			continue
		}
		byClass[s.Name] = append(byClass[s.Name], us(s.dur()))
		if c, ok := clients[s.Trace]; ok {
			t.spans[i].Parent = c.ID
			self = append(self, us(c.dur()-s.dur()))
		}
	}
	return map[string]float64{
		"server.handler_write_us":       median(byClass["server.write"]),
		"server.handler_alternative_us": median(byClass["server.alternative"]),
		"server.handler_plan_us":        median(byClass["server.plan"]),
		"transport.self_us":             median(self),
	}
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// A replay cycle closes when its child spans cover its wall time up to
// closureFrac of it plus closureFloor: the loop's own bookkeeping between
// the calls. closureQuorum is the share of cycles that must close for the
// trace to count; the rest may have absorbed a GC pause or a preemption
// between two spans. A layer left out of the trace fails every cycle.
const (
	closureFrac   = 0.05
	closureFloor  = 50 * time.Microsecond
	closureQuorum = 0.95
)

// layerStats accumulates the layer replay's busy times.
type layerStats struct {
	apply, repair, publish, plan, lookup, solve []float64 // µs per call
	appendUS, syncUS, ckptUS                    []float64
	publishBusy, cycleBusy                      time.Duration
	cycles, closed                              int
	publishAllocs, solveAllocs                  float64
	walBytes, walRecords                        int64
}

// replayTenant feeds one tenant's acknowledged ops, in epoch order and
// grouped into the cycles the HTTP requests formed, through the public
// layer APIs in the tenant loop's order: Manager.Begin, per op the
// mutation and wal.Log.Append, Manager.Commit, wal.Log.Sync,
// Manager.Snapshot. Alternatives answered over HTTP are replayed after
// the cycle that admitted their request, as Snapshot.Request and
// adpar.Index.Solve, and must match the HTTP answer. Cycles of the
// measured phases are traced; the rest only rebuild state. It returns the
// final plan.
func replayTenant(s spec, cfg server.TenantConfig, acks []ack, alts []altAnswer, walDir string, tr *tracer, st *layerStats) (stream.Plan, error) {
	m, err := stream.NewManager(cfg.Set, cfg.Models, cfg.Mode, cfg.Objective, cfg.InitialW)
	if err != nil {
		return stream.Plan{}, err
	}
	ix, err := adpar.NewIndex(cfg.Set)
	if err != nil {
		return stream.Plan{}, err
	}
	if err := m.AttachIndex(ix); err != nil {
		return stream.Plan{}, err
	}
	var log *wal.Log
	if s.durable {
		if log, _, err = wal.Open(walDir, wal.Options{SyncManual: true}); err != nil {
			return stream.Plan{}, err
		}
		defer log.Close()
	}
	reads := map[uint64][]altAnswer{}
	for _, a := range alts {
		reads[a.after] = append(reads[a.after], a)
	}
	snap := m.Snapshot()
	sinceCkpt := 0
	var mem runtime.MemStats
	kidBuf := make([]span, 0, 2*max(s.body, prefillBody)+8)
	for lo := 0; lo < len(acks); {
		hi := lo + 1
		for hi < len(acks) && acks[hi].call == acks[lo].call {
			hi++
		}
		cycle := acks[lo:hi]
		traced := cycle[0].phase.measured()
		kids := kidBuf[:0]
		child := func(name string, start int64) {
			if traced {
				kids = append(kids, span{Name: name, Start: start, End: tr.now()})
			}
		}
		c0 := tr.now()
		t := c0
		m.Begin()
		child("stream.begin", t)
		for _, a := range cycle {
			t = tr.now()
			if err := applyOp(m, a.op); err != nil {
				return stream.Plan{}, fmt.Errorf("replaying %s %s: %w", a.op.kind, a.op.id, err)
			}
			child("stream.apply", t)
			if m.Epoch() != a.epoch {
				return stream.Plan{}, fmt.Errorf("replay of %s %s reached epoch %d, its ack said %d", a.op.kind, a.op.id, m.Epoch(), a.epoch)
			}
			if log == nil {
				continue
			}
			t = tr.now()
			if _, err := log.Append(walRecord(m, a)); err != nil {
				return stream.Plan{}, err
			}
			child("wal.append", t)
			if sinceCkpt++; sinceCkpt >= checkpointEvery {
				st.walBytes += segmentBytes(walDir)
				st.walRecords += int64(sinceCkpt)
				t = tr.now()
				if _, err := log.Checkpoint(walCheckpoint(m)); err != nil {
					return stream.Plan{}, err
				}
				child("wal.checkpoint", t)
				sinceCkpt = 0
			}
		}
		t = tr.now()
		m.Commit()
		child("batch.repair", t)
		if log != nil {
			t = tr.now()
			if err := log.Sync(); err != nil {
				return stream.Plan{}, err
			}
			child("wal.sync", t)
		}
		t = tr.now()
		snap = m.Snapshot()
		child("stream.publish", t)
		c1 := tr.now()
		if traced {
			id := tr.next.Add(1)
			covered := time.Duration(0)
			for _, k := range kids {
				k.ID, k.Parent = tr.next.Add(1), id
				tr.add(k)
				d := k.dur()
				covered += d
				switch k.Name {
				case "stream.apply":
					st.apply = append(st.apply, us(d))
				case "wal.append":
					st.appendUS = append(st.appendUS, us(d))
				case "wal.checkpoint":
					st.ckptUS = append(st.ckptUS, us(d))
				case "batch.repair":
					st.repair = append(st.repair, us(d))
				case "wal.sync":
					st.syncUS = append(st.syncUS, us(d))
				case "stream.publish":
					st.publish = append(st.publish, us(d))
					st.publishBusy += d
				}
			}
			wall := time.Duration(c1 - c0)
			tr.add(span{Name: "replay.cycle", ID: id, Start: c0, End: c1})
			st.cycleBusy += wall
			st.cycles++
			if wall-covered <= closureFloor+time.Duration(closureFrac*float64(wall)) {
				st.closed++
			}
			// Manager.Plan is the walk inside Snapshot; time it alone,
			// outside the cycle, to split publish into plan and copy.
			t = tr.now()
			m.Plan()
			st.plan = append(st.plan, us(time.Duration(tr.now()-t)))
		}
		for _, a := range reads[cycle[len(cycle)-1].epoch] {
			t = tr.now()
			rs, ok := snap.Request(a.req.ID)
			l0 := tr.now()
			if !ok {
				return stream.Plan{}, fmt.Errorf("replay: %s not open when its alternative was asked", a.req.ID)
			}
			sol, err := ix.Solve(rs.Request)
			l1 := tr.now()
			if err != nil {
				return stream.Plan{}, err
			}
			if err := sameAlternative(a.resp, sol, rs.Request.K); err != nil {
				return stream.Plan{}, err
			}
			if a.phase.measured() {
				read := tr.next.Add(1)
				tr.add(span{Name: "replay.read", ID: read, Start: t, End: l1})
				tr.add(span{Name: "stream.lookup", ID: tr.next.Add(1), Parent: read, Start: t, End: l0})
				tr.add(span{Name: "adpar.solve", ID: tr.next.Add(1), Parent: read, Start: l0, End: l1})
				st.lookup = append(st.lookup, us(time.Duration(l0-t)))
				st.solve = append(st.solve, us(time.Duration(l1-l0)))
				if len(st.solve) <= 64 {
					st.solveAllocs += allocs(&mem, func() { ix.Solve(rs.Request) })
				}
			}
		}
		lo = hi
	}
	if log != nil {
		st.walBytes += segmentBytes(walDir)
		st.walRecords += int64(sinceCkpt)
	}
	if st.cycles > 0 {
		var a float64
		for i := 0; i < 3; i++ {
			a += allocs(&mem, func() { m.Snapshot() })
		}
		st.publishAllocs = a / 3
	}
	return m.Plan(), nil
}

// allocs counts the heap allocations of one call of f.
func allocs(mem *runtime.MemStats, f func()) float64 {
	runtime.ReadMemStats(mem)
	before := mem.Mallocs
	f()
	runtime.ReadMemStats(mem)
	return float64(mem.Mallocs - before)
}

func applyOp(m *stream.Manager, o op) error {
	switch o.kind {
	case opSubmit:
		_, err := m.Submit(o.req)
		return err
	case opRevoke:
		return m.Revoke(o.id)
	case opDrift:
		return m.SetAvailability(o.w)
	}
	return fmt.Errorf("op %s does not mutate", o.kind)
}

// walRecord builds the WAL record the tenant loop appends for an applied
// op (server.Tenant.logMutation).
func walRecord(m *stream.Manager, a ack) wal.Record {
	rec := wal.Record{Epoch: a.epoch}
	switch a.op.kind {
	case opSubmit:
		req, _ := m.Requirement(a.op.id)
		seq, _ := m.SubmissionSeq(a.op.id)
		rec.Kind, rec.ID, rec.Sub = wal.KindSubmit, a.op.id, seq
		rec.Quality, rec.Cost, rec.Latency, rec.K = a.op.req.Quality, a.op.req.Cost, a.op.req.Latency, a.op.req.K
		rec.Infeasible = !req.Feasible()
		if req.Feasible() {
			rec.Req = req.Workforce
		}
	case opRevoke:
		rec.Kind, rec.ID = wal.KindRevoke, a.op.id
	case opDrift:
		rec.Kind, rec.W = wal.KindAvailability, a.op.w
	}
	return rec
}

// walCheckpoint builds the checkpoint the tenant loop writes
// (server.Tenant.checkpointNow).
func walCheckpoint(m *stream.Manager) wal.Checkpoint {
	snap := m.Snapshot()
	cp := wal.Checkpoint{
		Epoch:        snap.Epoch,
		Availability: snap.Availability,
		NextSub:      m.SubmissionCounter(),
		Requests:     make([]wal.CheckpointRequest, 0, len(snap.Requests)),
	}
	for _, rs := range snap.Requests {
		cr := wal.CheckpointRequest{
			ID: rs.ID, Quality: rs.Request.Quality, Cost: rs.Request.Cost, Latency: rs.Request.Latency,
			K: rs.Request.K, Sub: rs.Seq, Infeasible: !rs.Feasible,
		}
		if rs.Feasible {
			cr.Req = rs.Workforce
		}
		cp.Requests = append(cp.Requests, cr)
	}
	return cp
}

// segmentBytes sums the sizes of the WAL segment files in dir.
func segmentBytes(dir string) int64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// replayLayers runs the layer replay over every tenant, single-threaded,
// and turns its spans into the per-layer metrics.
func replayLayers(in *instance, root string, tr *tracer, plans []server.PlanResponse) (map[string]float64, error) {
	var st layerStats
	for i, cfg := range in.cfgs {
		acks, err := in.acks(i)
		if err != nil {
			return nil, err
		}
		alts, err := in.answers(i)
		if err != nil {
			return nil, err
		}
		plan, err := replayTenant(in.s, cfg, acks, alts, filepath.Join(root, fmt.Sprintf("replay-%d", i)), tr, &st)
		if err != nil {
			return nil, fmt.Errorf("tenant %d layer replay: %w", i, err)
		}
		if err := samePlan(plans[i], plan); err != nil {
			return nil, fmt.Errorf("tenant %d layer replay vs HTTP plan: %w", i, err)
		}
	}
	solve := append([]float64(nil), st.solve...)
	out := map[string]float64{
		"stream.publish_us":     median(st.publish),
		"stream.publish_allocs": st.publishAllocs,
		"stream.plan_us":        median(st.plan),
		"stream.publish_share":  ratio(float64(st.publishBusy), float64(st.cycleBusy)),
		"stream.apply_us":       median(st.apply),
		"stream.lookup_us":      median(st.lookup),
		"batch.repair_us":       median(st.repair),
		"wal.append_us":         median(st.appendUS),
		"wal.bytes_per_op":      ratio(float64(st.walBytes), float64(st.walRecords)),
		"wal.sync_us":           median(st.syncUS),
		"wal.checkpoint_us":     median(st.ckptUS),
		"adpar.solve_p50_us":    quantile(solve, 0.5),
		"adpar.solve_p99_us":    quantile(solve, 0.99),
		"adpar.solve_allocs":    ratio(st.solveAllocs, math.Min(float64(len(st.solve)), 64)),
		"trace.closure_frac":    ratio(float64(st.closed), float64(st.cycles)),
	}
	if st.cycles > 0 && out["trace.closure_frac"] < closureQuorum {
		return out, fmt.Errorf("trace closure: only %d of %d replay cycles are covered by their child spans within %.0f%% + %v",
			st.closed, st.cycles, 100*closureFrac, closureFloor)
	}
	return out, nil
}

// epochOrder sorts acknowledged ops by the epoch their ack returned and
// checks that the epochs are exactly 1..n: every applied mutation was
// acknowledged once, and none is missing.
func epochOrder(acks []ack) ([]ack, error) {
	out := append([]ack(nil), acks...)
	sort.Slice(out, func(i, j int) bool { return out[i].epoch < out[j].epoch })
	for i, a := range out {
		if a.epoch != uint64(i+1) {
			return nil, fmt.Errorf("acknowledged epochs are not 1..%d: position %d holds epoch %d", len(out), i+1, a.epoch)
		}
	}
	return out, nil
}
