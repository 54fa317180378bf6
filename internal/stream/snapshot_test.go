package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"stratrec/internal/batch"
	"stratrec/internal/strategy"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// naivePool is the reference for the shared-memory publish: the pool the
// way the manager kept it before snapshots shared memory — an admission
// order with "" tombstones and an entries map probed for every slot —
// with each plan decided by a from-scratch BatchStrat over the open pool
// instead of the incremental planner.
type naivePool struct {
	set       strategy.Set
	models    workforce.ModelProvider
	objective batch.Objective
	w         float64
	order     []string
	entries   map[string]*naiveEntry
	nextSeq   uint64
	epoch     uint64
}

type naiveEntry struct {
	d   strategy.Request
	seq uint64
	req workforce.Requirement
}

// naiveSnap is naiveSnapshot's result: every field a copy, with the
// per-publish byID map.
type naiveSnap struct {
	epoch        uint64
	availability float64
	plan         Plan
	requests     []RequestState
	byID         map[string]int
}

func (p *naivePool) submit(d strategy.Request) {
	p.entries[d.ID] = &naiveEntry{d: d, seq: p.nextSeq,
		req: workforce.RequirementFor(d, p.nextSeq, p.set, p.models, workforce.MaxCase)}
	p.order = append(p.order, d.ID)
	p.nextSeq++
	p.epoch++
}

func (p *naivePool) revoke(id string) {
	delete(p.entries, id)
	p.order[slices.Index(p.order, id)] = ""
	p.epoch++
}

func (p *naivePool) setAvailability(w float64) {
	p.w = w
	p.epoch++
}

func (p *naivePool) value(d strategy.Request) float64 {
	if p.objective == batch.Payoff {
		return d.Cost
	}
	return 1
}

// naiveSnapshot is the copy-everything construction: walk the order,
// probe entries per slot, copy every Strategies slice and fill a fresh
// byID map.
func naiveSnapshot(p *naivePool) naiveSnap {
	var items []batch.Item
	for _, id := range p.order {
		if e := p.entries[id]; id != "" && e.req.Feasible() {
			items = append(items, batch.Item{Index: int(e.seq), Value: p.value(e.d), Workforce: e.req.Workforce, Strategies: e.req.Strategies})
		}
	}
	res := batch.BatchStrat(items, p.w)
	s := naiveSnap{epoch: p.epoch, availability: p.w, byID: map[string]int{}}
	for _, id := range p.order {
		if id == "" {
			continue
		}
		e := p.entries[id]
		serving := e.req.Feasible() && res.IsSelected(int(e.seq))
		if serving {
			s.plan.Serving = append(s.plan.Serving, id)
			s.plan.Workforce += e.req.Workforce
			s.plan.Objective += p.value(e.d)
		} else {
			s.plan.Displaced = append(s.plan.Displaced, id)
		}
		rs := RequestState{ID: id, Request: e.d, Seq: e.seq, Serving: serving,
			Feasible: e.req.Feasible(), Workforce: e.req.Workforce}
		if len(e.req.Strategies) > 0 {
			rs.Strategies = append([]int(nil), e.req.Strategies...)
		}
		s.byID[id] = len(s.requests)
		s.requests = append(s.requests, rs)
	}
	return s
}

// deepCopy freezes a published snapshot into memory nothing else
// shares.
func deepCopy(s *Snapshot) naiveSnap {
	c := naiveSnap{epoch: s.Epoch, availability: s.Availability, byID: map[string]int{},
		plan: Plan{Serving: slices.Clone(s.Plan.Serving), Displaced: slices.Clone(s.Plan.Displaced),
			Objective: s.Plan.Objective, Workforce: s.Plan.Workforce}}
	for i, rs := range s.Requests {
		v := *rs
		v.Strategies = slices.Clone(rs.Strategies)
		c.requests = append(c.requests, v)
		c.byID[rs.ID] = i
	}
	return c
}

func sameState(a, b RequestState) bool {
	return a.ID == b.ID && a.Request == b.Request && a.Seq == b.Seq && a.Serving == b.Serving &&
		a.Feasible == b.Feasible && math.Float64bits(a.Workforce) == math.Float64bits(b.Workforce) &&
		slices.Equal(a.Strategies, b.Strategies)
}

// diffSnapshot compares every field of got with want, including
// Request(id) for every open ID and for the given absent ones.
func diffSnapshot(got *Snapshot, want naiveSnap, absent []string) error {
	if got.Epoch != want.epoch || math.Float64bits(got.Availability) != math.Float64bits(want.availability) {
		return fmt.Errorf("header (%d, %v), want (%d, %v)", got.Epoch, got.Availability, want.epoch, want.availability)
	}
	if !slices.Equal(got.Plan.Serving, want.plan.Serving) || !slices.Equal(got.Plan.Displaced, want.plan.Displaced) {
		return fmt.Errorf("plan lists differ:\n got %v / %v\nwant %v / %v", got.Plan.Serving, got.Plan.Displaced, want.plan.Serving, want.plan.Displaced)
	}
	if math.Float64bits(got.Plan.Objective) != math.Float64bits(want.plan.Objective) ||
		math.Float64bits(got.Plan.Workforce) != math.Float64bits(want.plan.Workforce) {
		return fmt.Errorf("plan sums (%v, %v), want (%v, %v) bit for bit", got.Plan.Objective, got.Plan.Workforce, want.plan.Objective, want.plan.Workforce)
	}
	if len(got.Requests) != len(want.requests) {
		return fmt.Errorf("%d requests, want %d", len(got.Requests), len(want.requests))
	}
	for i, rs := range got.Requests {
		if !sameState(*rs, want.requests[i]) {
			return fmt.Errorf("request %d = %+v, want %+v", i, *rs, want.requests[i])
		}
		byID, ok := got.Request(rs.ID)
		if !ok || !sameState(byID, want.requests[want.byID[rs.ID]]) {
			return fmt.Errorf("Request(%s) = %+v, %v; want %+v", rs.ID, byID, ok, want.requests[want.byID[rs.ID]])
		}
	}
	for _, id := range absent {
		if _, open := want.byID[id]; open {
			continue
		}
		if rs, ok := got.Request(id); ok {
			return fmt.Errorf("Request(%s) found a request that is not open: %+v", id, rs)
		}
	}
	return nil
}

// TestSnapshotMatchesNaiveConstruction drives the manager and the naive
// pool through seeded submit/resubmit/revoke/availability sequences in
// Begin/Commit batches of random size, under both objectives, and
// compares every published snapshot with the naive construction field
// by field. Every retained snapshot is re-checked at the end against
// the deep copy taken when it was published, so a later mutation that
// wrote shared memory shows up as a changed old snapshot.
func TestSnapshotMatchesNaiveConstruction(t *testing.T) {
	for _, obj := range []batch.Objective{batch.Throughput, batch.Payoff} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", obj, seed), func(t *testing.T) {
				checkAgainstNaive(t, obj, seed)
			})
		}
	}
}

func checkAgainstNaive(t *testing.T, obj batch.Objective, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	gen := synth.DefaultConfig(synth.Uniform)
	set := gen.Strategies(rng, 24)
	models := gen.Models(rng, set)
	m, err := NewManager(set, models, workforce.MaxCase, obj, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := &naivePool{set: set, models: models, objective: obj, w: 0.5, entries: map[string]*naiveEntry{}}

	var open, revoked []string
	next := 0
	type published struct {
		snap   *Snapshot
		frozen naiveSnap
	}
	var kept []published
	compactions := 0
	for batchNo := 0; batchNo < 150; batchNo++ {
		// Phases: grow the pool, then drain most of it (enough revokes
		// to compact the slot array), then churn around a steady size.
		phase := batchNo / 50
		m.Begin()
		for n := 1 + rng.Intn(8); n > 0; n-- {
			r := rng.Float64()
			switch {
			case r < 0.1:
				w := rng.Float64()
				if err := m.SetAvailability(w); err != nil {
					t.Fatal(err)
				}
				p.setAvailability(w)
			case len(open) > 0 && (phase == 1 && r < 0.85 || phase != 1 && r < 0.35):
				i := rng.Intn(len(open))
				id := open[i]
				open = slices.Delete(open, i, i+1)
				if err := m.Revoke(id); err != nil {
					t.Fatal(err)
				}
				p.revoke(id)
				revoked = append(revoked, id)
			default:
				d := gen.Requests(rng, 1, 1+rng.Intn(5))[0]
				if len(revoked) > 0 && r > 0.9 {
					// Resubmit a revoked ID: a brand-new request.
					i := rng.Intn(len(revoked))
					d.ID = revoked[i]
					revoked = slices.Delete(revoked, i, i+1)
				} else {
					d.ID = mkID("q", next)
					next++
				}
				if _, err := m.Submit(d); err != nil {
					t.Fatal(err)
				}
				p.submit(d)
				open = append(open, d.ID)
			}
			if m.dead == 0 && len(p.order) > len(m.slots) {
				compactions++
				p.order = slices.DeleteFunc(p.order, func(id string) bool { return id == "" })
			}
		}
		m.Commit()
		snap := m.Snapshot()
		if err := diffSnapshot(snap, naiveSnapshot(p), revoked); err != nil {
			t.Fatalf("batch %d: %v", batchNo, err)
		}
		kept = append(kept, published{snap, deepCopy(snap)})
	}
	if compactions == 0 {
		t.Fatal("the sequence never compacted the slot array")
	}
	for i, k := range kept {
		if err := diffSnapshot(k.snap, k.frozen, revoked); err != nil {
			t.Fatalf("snapshot %d changed after publish: %v", i, err)
		}
	}
}

// TestSnapshotReadersRace walks published snapshots from several
// goroutines while the writer churns the pool and republishes; under
// -race any write into memory a published snapshot shares is reported.
func TestSnapshotReadersRace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := synth.DefaultConfig(synth.Uniform)
	set := gen.Strategies(rng, 16)
	m, err := NewManager(set, gen.Models(rng, set), workforce.MaxCase, batch.Payoff, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[Snapshot]
	cur.Store(m.Snapshot())
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := cur.Load()
				sum := 0.0
				for _, rs := range s.Requests {
					got, ok := s.Request(rs.ID)
					if !ok || got.Serving != rs.Serving || got.Seq != rs.Seq {
						t.Errorf("Request(%s) = %+v, %v; Requests holds %+v", rs.ID, got, ok, *rs)
						return
					}
					for _, id := range got.Strategies {
						sum += float64(id)
					}
				}
				if len(s.Plan.Serving)+len(s.Plan.Displaced) != len(s.Requests) || math.IsNaN(sum+s.Plan.Objective) {
					t.Errorf("snapshot at epoch %d is inconsistent", s.Epoch)
					return
				}
			}
		}()
	}
	var open []string
	for i := 0; i < 1500; i++ {
		m.Begin()
		if len(open) > 40 || len(open) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(open))
			if err := m.Revoke(open[j]); err != nil {
				t.Fatal(err)
			}
			open = slices.Delete(open, j, j+1)
		} else {
			d := gen.Requests(rng, 1, 1+rng.Intn(3))[0]
			d.ID = mkID("r", i)
			if _, err := m.Submit(d); err != nil {
				t.Fatal(err)
			}
			open = append(open, d.ID)
		}
		if i%50 == 0 {
			if err := m.SetAvailability(rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		m.Commit()
		cur.Store(m.Snapshot())
	}
	close(done)
	wg.Wait()
}
