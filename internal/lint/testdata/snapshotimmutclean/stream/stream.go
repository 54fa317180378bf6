// Package stream is the snapshotimmut clean fixture's stream mimic.
package stream

type RequestState struct {
	ID         string
	Serving    bool
	Strategies []int
}

type Snapshot struct {
	Epoch    uint64
	Requests []*RequestState
}

// Request returns a value copy of a shared state.
func (s *Snapshot) Request(id string) (RequestState, bool) {
	for _, rs := range s.Requests {
		if rs.ID == id {
			return *rs, true
		}
	}
	return RequestState{}, false
}

type Manager struct {
	epoch  uint64
	states []*RequestState
}

// Submit builds a state as a fresh literal.
func (m *Manager) Submit(id string, strategies []int) {
	m.states = append(m.states, &RequestState{ID: id, Strategies: strategies})
	m.epoch++
}

// Flip replaces a shared state with a modified value copy.
func (m *Manager) Flip(i int) {
	next := *m.states[i]
	next.Serving = !next.Serving
	m.states[i] = &next
}

// Snapshot builds the snapshot as a fresh literal over shared states.
func (m *Manager) Snapshot() *Snapshot {
	reqs := make([]*RequestState, 0, len(m.states))
	reqs = append(reqs, m.states...)
	return &Snapshot{Epoch: m.epoch, Requests: reqs}
}
