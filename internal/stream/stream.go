// Package stream implements the fully dynamic deployment setting the
// paper's conclusion poses as an open problem: deployment requests arrive
// one by one, may be revoked, and worker availability drifts over time. A
// Manager maintains a running plan under these events through an
// incremental batch.Planner, so every intermediate plan keeps the static
// guarantees (exact throughput, 1/2-approximate pay-off) over the
// currently open requests while each event costs a plan repair, not a
// from-scratch BatchStrat run. The expensive part, the workforce
// requirement of a request, is computed once at admission and cached.
//
// The epoch counter is a pool-generation counter: it advances on every
// applied mutation (submit, revoke, availability change), whether or not
// the serving set moved, so pollers and If-None-Match-style clients never
// miss a pool change. Callers that queue events can wrap them in
// Begin/Commit so the planner repairs once per batch instead of per
// event.
//
// Publishing a Snapshot shares memory instead of copying it. Each open
// request's RequestState is built once and replaced, never written, when
// the request changes; a persistent hash trie indexes the states by ID,
// so a change copies only its path. Publish is then one map-free pass
// over the admission order that builds the flat plan lists. Snapshots are
// immutable once built; the snapshotimmut analyzer (internal/lint) keeps
// every writer off memory a snapshot can reach.
package stream

import (
	"errors"
	"fmt"
	"math"

	"stratrec/internal/adpar"
	"stratrec/internal/batch"
	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// Event is a plan-affecting occurrence.
type Event int

const (
	// Submitted: a new request entered the pool.
	Submitted Event = iota
	// Revoked: a requester withdrew an open request.
	Revoked
	// AvailabilityChanged: the expected workforce W moved.
	AvailabilityChanged
)

func (e Event) String() string {
	switch e {
	case Submitted:
		return "submitted"
	case Revoked:
		return "revoked"
	case AvailabilityChanged:
		return "availability-changed"
	}
	return fmt.Sprintf("Event(%d)", int(e))
}

// slot is one position of the manager's admission order. The fields the
// plan pass reads sit inline, so the pass touches state only to share its
// pointer.
type slot struct {
	state     *RequestState // nil: a revoked tombstone
	id        string
	value     float64 // the request's objective contribution when served
	workforce float64
	serving   bool
}

// Manager maintains a deployment plan over a changing request pool. It
// compiles the ADPaR serving index for its strategy set once at
// construction and reuses it for every displaced-request alternative,
// instead of re-deriving the normalized problem per event.
type Manager struct {
	strategies strategy.Set
	models     workforce.ModelProvider
	mode       workforce.Mode
	objective  batch.Objective
	adparIdx   *adpar.Index

	w float64
	// slots is the admission order, for deterministic iteration. Revoked
	// slots become tombstones (compacted once they dominate) so a revoke
	// never splices the slice; pos maps an open ID to its slot.
	slots   []slot
	pos     map[string]int
	dead    int    // tombstone count in slots
	serving int    // serving count among open slots
	nextSeq uint64 // monotonic submission counter (RequestState.Seq source)
	epoch   uint64
	// index is the persistent ID index every snapshot shares: a change
	// copies only the trie path to the changed request.
	index *trieNode

	// planner maintains the density-ordered feasible pool and repairs the
	// greedy plan incrementally; items are keyed by the request's
	// submission sequence number (unique for the manager's lifetime, so
	// ties in the density order break deterministically by admission).
	// bySeq maps a planner item index back to its slot for serving sync.
	planner *batch.Planner
	bySeq   map[int]int
	// batching defers the serving-flag sync (and the planner repair
	// behind it) between Begin and Commit, so a drained batch of n events
	// costs one repair.
	batching bool
}

// ErrEmptyID rejects a submission without a request ID.
var ErrEmptyID = errors.New("stream: request needs an ID")

// ErrDuplicateID rejects a submission reusing an *open* request's ID. A
// revoked ID is forgotten entirely, so resubmitting it is not an error: the
// resubmission is admitted as a brand-new request (fresh requirement, fresh
// admission position).
var ErrDuplicateID = errors.New("stream: duplicate request ID")

// ErrUnknownID rejects revocation of a request that is not open.
var ErrUnknownID = errors.New("stream: unknown request ID")

// ErrBadAvailability rejects an expected workforce outside [0,1] (NaN
// included).
var ErrBadAvailability = errors.New("stream: availability outside [0,1]")

// ErrSeqOverflow rejects a submission whose sequence number no longer fits
// the planner's int item index. The workforce.ModelProvider contract is
// full-width uint64, so requirements never alias; this guard covers the
// one remaining narrowing (batch.Item.Index) explicitly instead of
// silently wrapping — reachable only on 32-bit platforms after 2^31
// lifetime submissions, or via a Resubmit of a corrupt recovered sequence.
var ErrSeqOverflow = errors.New("stream: submission sequence exceeds the planner index range")

// NewManager builds a dynamic deployment manager. The shared ADPaR index
// is compiled lazily on the first Alternative call, so managers that never
// serve alternatives pay nothing for it.
func NewManager(set strategy.Set, models workforce.ModelProvider, mode workforce.Mode, objective batch.Objective, initialW float64) (*Manager, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if models == nil {
		return nil, errors.New("stream: nil model provider")
	}
	if initialW < 0 || initialW > 1 || math.IsNaN(initialW) {
		return nil, fmt.Errorf("%w: %v", ErrBadAvailability, initialW)
	}
	return &Manager{
		strategies: set,
		models:     models,
		mode:       mode,
		objective:  objective,
		w:          initialW,
		pos:        map[string]int{},
		planner:    batch.NewPlanner(initialW),
		bySeq:      map[int]int{},
	}, nil
}

// Epoch is the pool-generation counter: it increments on every applied
// mutation — submit, revoke, availability change — even when the serving
// set is unchanged, so callers can poll it cheaply and never miss a pool
// mutation. Failed mutations leave it untouched.
func (m *Manager) Epoch() uint64 { return m.epoch }

// SubmissionCounter returns the sequence number the next fresh submission
// will receive. Checkpoints persist it so that recovery restores the
// counter even when the highest-numbered submissions have been revoked.
func (m *Manager) SubmissionCounter() uint64 { return m.nextSeq }

// RestoreCounters force-sets the plan epoch and advances the submission
// counter to at least nextSub. It exists solely for crash recovery: after
// the checkpointed pool has been re-admitted (Resubmit), the recovered
// manager's epoch is aligned with the pre-crash value so that epoch-based
// observables survive a restart; replaying the WAL tail then advances it
// exactly as the original run did.
func (m *Manager) RestoreCounters(epoch, nextSub uint64) {
	m.epoch = epoch
	if nextSub > m.nextSeq {
		m.nextSeq = nextSub
	}
}

// Availability returns the current expected workforce W.
func (m *Manager) Availability() float64 { return m.w }

// Open returns the number of open (non-revoked) requests.
func (m *Manager) Open() int { return len(m.pos) }

// Submit admits a request, computes and caches its workforce requirement,
// and replans. It returns whether the new plan serves the request (inside
// a Begin/Commit batch the replan is deferred, so the return value is the
// pre-batch decision; consult Served after Commit instead).
//
// Error paths are consistent and leave the manager unchanged: an empty ID
// is ErrEmptyID, invalid parameters surface the strategy validation error,
// and an ID currently open is ErrDuplicateID. An ID that was revoked is no
// longer open and may be resubmitted freely; the manager keeps no memory
// of revoked requests.
func (m *Manager) Submit(d strategy.Request) (bool, error) {
	return m.admit(d, m.nextSeq)
}

// Resubmit admits a request under a previously assigned submission
// sequence number. It exists for crash recovery (internal/wal replay):
// re-admitting a request with its original Seq reproduces the original
// workforce requirement bit-for-bit even under a per-request
// ModelProvider. The manager's submission counter advances past seq, so
// later fresh submissions never collide with restored ones.
func (m *Manager) Resubmit(d strategy.Request, seq uint64) (bool, error) {
	return m.admit(d, seq)
}

// admit is the shared submission path: validate, compute and cache the
// requirement under the given submission sequence number, insert into the
// planner and (outside a batch) sync the repaired plan.
func (m *Manager) admit(d strategy.Request, seq uint64) (bool, error) {
	if d.ID == "" {
		return false, ErrEmptyID
	}
	if err := d.Validate(); err != nil {
		return false, err
	}
	if _, exists := m.pos[d.ID]; exists {
		return false, fmt.Errorf("%w: %s", ErrDuplicateID, d.ID)
	}
	if seq > uint64(math.MaxInt) {
		return false, fmt.Errorf("%w: %d", ErrSeqOverflow, seq)
	}
	// The submission counter — not the pool position — is the reqIdx of
	// the ModelProvider contract: pool positions are reused after revokes,
	// which would alias per-request model rows between distinct live
	// requests (and could index out of a FullModels matrix).
	req := workforce.RequirementFor(d, seq, m.strategies, m.models, m.mode)
	rs := &RequestState{
		ID:         d.ID,
		Request:    d,
		Seq:        seq,
		Feasible:   req.Feasible(),
		Workforce:  req.Workforce,
		Strategies: req.Strategies,
	}
	value := m.value(d)
	i := len(m.slots)
	if rs.Feasible {
		// Infeasible requests can never be served at any availability and
		// stay out of the planner pool entirely.
		if err := m.planner.Insert(batch.Item{
			Index:      int(seq),
			Value:      value,
			Workforce:  req.Workforce,
			Strategies: req.Strategies,
		}); err != nil {
			// Only reachable by a Resubmit reusing a live entry's sequence
			// number (a corrupt recovery input); the pool is unchanged.
			return false, err
		}
		m.bySeq[int(seq)] = i
	}
	m.pos[d.ID] = i
	m.slots = append(m.slots, slot{state: rs, id: d.ID, value: value, workforce: req.Workforce})
	m.index = m.index.with(rs)
	if seq >= m.nextSeq {
		m.nextSeq = seq + 1
	}
	m.epoch++
	if !m.batching {
		m.sync()
	}
	return m.slots[i].serving, nil
}

// Revoke withdraws an open request and replans; freed workforce may admit
// previously displaced requests. The pool bookkeeping is O(1) amortized:
// the request's admission slot (found through the ID→position index)
// becomes a tombstone, and the slot array compacts only once tombstones
// outnumber live slots.
func (m *Manager) Revoke(id string) error {
	i, ok := m.pos[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownID, id)
	}
	s := m.slots[i]
	delete(m.pos, id)
	m.slots[i] = slot{}
	m.dead++
	if s.serving {
		m.serving--
	}
	if s.state.Feasible {
		m.planner.Remove(int(s.state.Seq))
		delete(m.bySeq, int(s.state.Seq))
	}
	m.index = m.index.without(id)
	if m.dead > 32 && m.dead*2 > len(m.slots) {
		m.compact()
	}
	m.epoch++
	if !m.batching {
		m.sync()
	}
	return nil
}

// compact rebuilds the slot array without tombstones, preserving
// admission order, and refreshes both position indexes.
func (m *Manager) compact() {
	live := m.slots[:0]
	for _, s := range m.slots {
		if s.state == nil {
			continue
		}
		m.pos[s.id] = len(live)
		if s.state.Feasible {
			m.bySeq[int(s.state.Seq)] = len(live)
		}
		live = append(live, s)
	}
	clear(m.slots[len(live):])
	m.slots = live
	m.dead = 0
}

// SetAvailability moves the expected workforce and replans. Values outside
// [0,1] — NaN included — are rejected with ErrBadAvailability and leave the
// manager unchanged.
func (m *Manager) SetAvailability(w float64) error {
	if w < 0 || w > 1 || math.IsNaN(w) {
		return fmt.Errorf("%w: %v", ErrBadAvailability, w)
	}
	m.w = w
	m.planner.SetBudget(w)
	m.epoch++
	if !m.batching {
		m.sync()
	}
	return nil
}

// Begin enters deferred-replan mode: subsequent Submit/Resubmit/Revoke/
// SetAvailability calls update the pool and advance the epoch but postpone
// the planner repair and serving-flag sync until Commit, so a queued batch
// of n events costs one plan repair instead of n. While a batch is open,
// Submit's served return value and per-request Serving flags reflect the
// last committed plan; read them after Commit. Begin/Commit do not nest.
func (m *Manager) Begin() { m.batching = true }

// Commit leaves deferred-replan mode, repairs the plan once, and syncs
// every serving flag the batch changed.
func (m *Manager) Commit() {
	m.batching = false
	m.sync()
}

// sync repairs the planner and folds the changed selection statuses back
// into the pool. Only requests whose status actually flipped are touched:
// each gets a replacement RequestState (the old one may be shared by
// published snapshots) and a fresh path in the ID index.
func (m *Manager) sync() {
	for _, idx := range m.planner.Changed() {
		i, ok := m.bySeq[idx]
		if !ok {
			continue
		}
		s := &m.slots[i]
		serving := m.planner.IsSelected(idx)
		if serving == s.serving {
			continue
		}
		next := *s.state
		next.Serving = serving
		s.state, s.serving = &next, serving
		m.index = m.index.with(&next)
		if serving {
			m.serving++
		} else {
			m.serving--
		}
	}
}

// Served reports the current plan's decision for an open request:
// served=false, open=false for IDs not in the pool. Inside a Begin/Commit
// batch the answer reflects the last committed plan.
func (m *Manager) Served(id string) (served, open bool) {
	i, ok := m.pos[id]
	if !ok {
		return false, false
	}
	return m.slots[i].serving, true
}

// SubmissionSeq returns the submission sequence number of an open request
// (the reqIdx its requirement was computed under).
func (m *Manager) SubmissionSeq(id string) (uint64, bool) {
	i, ok := m.pos[id]
	if !ok {
		return 0, false
	}
	return m.slots[i].state.Seq, true
}

// Requirement returns the cached aggregated workforce requirement of an
// open request. The serving layer logs it as a per-submit recovery
// fingerprint: it is a pure function of (request, submission seq, catalog,
// models, mode), so a recovered replay that computes anything different
// was run against the wrong tenant universe.
func (m *Manager) Requirement(id string) (workforce.Requirement, bool) {
	i, ok := m.pos[id]
	if !ok {
		return workforce.Requirement{}, false
	}
	rs := m.slots[i].state
	return workforce.Requirement{Workforce: rs.Workforce, Strategies: rs.Strategies}, true
}

// Plan is the current serving decision.
type Plan struct {
	// Serving lists served request IDs in admission order.
	Serving []string
	// Displaced lists open-but-unserved request IDs in admission order.
	Displaced []string
	// Objective is the achieved objective value over open requests.
	Objective float64
	// Workforce is the plan's total workforce consumption.
	Workforce float64
}

// Plan returns the current plan.
func (m *Manager) Plan() Plan {
	p, _ := m.walk(nil)
	return p
}

// walk is the one pass over the admission order behind Plan and
// Snapshot: it lists serving and displaced IDs, sums the plan in
// admission order (so Objective is bit-identical to a naive replay's),
// and appends every open request's shared state to reqs when reqs is
// non-nil.
func (m *Manager) walk(reqs []*RequestState) (Plan, []*RequestState) {
	ids := make([]string, len(m.pos))
	p := Plan{Serving: ids[:0:m.serving], Displaced: ids[m.serving:m.serving]}
	for i := range m.slots {
		s := &m.slots[i]
		if s.state == nil {
			continue
		}
		if reqs != nil {
			reqs = append(reqs, s.state)
		}
		if s.serving {
			p.Serving = append(p.Serving, s.id)
			p.Workforce += s.workforce
			p.Objective += s.value
		} else {
			p.Displaced = append(p.Displaced, s.id)
		}
	}
	return p, reqs
}

// RequestState is one open request's state. The manager allocates it at
// admission and never writes it again: a serving flip allocates a
// replacement, so every snapshot between two changes of a request shares
// one RequestState (Strategies included) with the others.
type RequestState struct {
	ID      string
	Request strategy.Request
	// Seq is the request's submission sequence number, the reqIdx its
	// requirement was computed under. It is never reused after a
	// revocation, and checkpoints persist it so recovery can re-admit the
	// request under its original model row.
	Seq uint64
	// Serving reports whether the snapshot's plan serves the request.
	Serving bool
	// Feasible reports whether the request can be served at any
	// availability (false when fewer than K strategies can ever satisfy
	// it).
	Feasible bool
	// Workforce is the cached aggregated requirement; +Inf when
	// infeasible.
	Workforce float64
	// Strategies holds the K recommended strategy IDs (nil when
	// infeasible).
	Strategies []int
}

// Snapshot is the manager's state at one epoch: the plan, the
// availability, and every open request. A single-writer event loop can
// publish one through an atomic pointer after each event so that readers
// (plan queries, alternative serving) never touch the manager.
//
// A snapshot is immutable once built, and it shares memory with the
// manager and with other snapshots: each RequestState and every node of
// the ID index stays shared until its request changes, when the manager
// builds a replacement instead of writing the shared one. Only the flat
// lists (Plan.Serving, Plan.Displaced, Requests) are built per snapshot.
// Nothing may write memory reachable from a snapshot; the snapshotimmut
// analyzer in internal/lint enforces this at vet time.
type Snapshot struct {
	Epoch        uint64
	Availability float64
	Plan         Plan
	// Requests lists every open request in admission order.
	Requests []*RequestState

	index *trieNode
}

// Request returns the state of an open request by ID. The value is a
// copy, but its Strategies slice is shared snapshot memory.
func (s *Snapshot) Request(id string) (RequestState, bool) {
	if s == nil {
		return RequestState{}, false
	}
	rs := s.index.get(id)
	if rs == nil {
		return RequestState{}, false
	}
	return *rs, true
}

// Snapshot publishes the manager's current state in one pass over the
// admission order. Like every other method it must be called from the
// manager's single writer; the returned value is then safe to hand to any
// number of concurrent readers.
func (m *Manager) Snapshot() *Snapshot {
	p, reqs := m.walk(make([]*RequestState, 0, len(m.pos)))
	return &Snapshot{
		Epoch:        m.epoch,
		Availability: m.w,
		Plan:         p,
		Requests:     reqs,
		index:        m.index,
	}
}

// Strategies returns the k recommended strategies of a served request, or
// nil if the request is not currently served.
func (m *Manager) Strategies(id string) []int {
	i, ok := m.pos[id]
	if !ok || !m.slots[i].serving {
		return nil
	}
	return append([]int(nil), m.slots[i].state.Strategies...)
}

// ErrServed reports that an alternative was requested for a request the
// current plan already serves.
var ErrServed = errors.New("stream: request is served; no alternative needed")

// Alternative recommends alternative deployment parameters (ADPaR,
// Section 4) for an open request the current plan does not serve. It runs
// against the manager's shared serving index — compiled on first use, like
// the Manager itself not safe for concurrent use — so the steady-state
// per-request cost is the sweep alone, with no per-event re-derivation of
// the normalized problem.
func (m *Manager) Alternative(id string) (adpar.Solution, error) {
	i, ok := m.pos[id]
	if !ok {
		return adpar.Solution{}, fmt.Errorf("%w: %s", ErrUnknownID, id)
	}
	if m.slots[i].serving {
		return adpar.Solution{}, fmt.Errorf("%w: %s", ErrServed, id)
	}
	ix, err := m.Index()
	if err != nil {
		return adpar.Solution{}, err
	}
	return ix.Solve(m.slots[i].state.Request)
}

// Index returns the manager's shared ADPaR serving index, compiling it on
// first use. The returned index is immutable and safe for concurrent Solve
// calls, so callers may serve alternatives from it without going through
// the manager at all (the lock-free read path of a serving tenant).
func (m *Manager) Index() (*adpar.Index, error) {
	if m.adparIdx == nil {
		ix, err := adpar.NewIndex(m.strategies)
		if err != nil {
			return nil, err
		}
		m.adparIdx = ix
	}
	return m.adparIdx, nil
}

// AttachIndex installs a pre-compiled ADPaR index, sharing one warm
// compilation across managers (or between a manager and an HTTP serving
// layer) over the same strategy set. The index must have been compiled for
// a set of the same size; attaching replaces any lazily compiled index.
func (m *Manager) AttachIndex(ix *adpar.Index) error {
	if ix == nil {
		return errors.New("stream: nil index")
	}
	if ix.Len() != len(m.strategies) {
		return fmt.Errorf("stream: index compiled for %d strategies, manager has %d", ix.Len(), len(m.strategies))
	}
	m.adparIdx = ix
	return nil
}

func (m *Manager) value(d strategy.Request) float64 {
	if m.objective == batch.Payoff {
		return d.Cost
	}
	return 1
}
