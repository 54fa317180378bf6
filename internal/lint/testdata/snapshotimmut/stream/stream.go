// Package stream is the snapshotimmut fixture's stream mimic: the
// shared-memory Snapshot shape, a manager that builds snapshot memory
// only from fresh values, and in-package violations proving even stream
// itself has no sanctioned writer.
package stream

type RequestState struct {
	ID         string
	Serving    bool
	Strategies []int
}

type Plan struct {
	Serving []string
}

// trieNode mimics the ID-index nodes snapshots share.
type trieNode struct {
	kids []*RequestState
}

type Snapshot struct {
	Epoch    uint64
	Plan     Plan
	Requests []*RequestState

	index *trieNode
}

// Request returns a value copy; its Strategies still alias the snapshot.
func (s *Snapshot) Request(id string) (RequestState, bool) {
	for _, rs := range s.index.kids {
		if rs.ID == id {
			return *rs, true
		}
	}
	return RequestState{}, false
}

type Manager struct {
	epoch  uint64
	states []*RequestState
	index  *trieNode
}

// Snapshot builds the snapshot as a fresh literal over shared states.
func (m *Manager) Snapshot() *Snapshot {
	reqs := make([]*RequestState, 0, len(m.states))
	reqs = append(reqs, m.states...)
	return &Snapshot{Epoch: m.epoch, Requests: reqs, index: m.index}
}

// Flip replaces a shared state with a modified value copy.
func (m *Manager) Flip(i int) {
	next := *m.states[i]
	next.Serving = !next.Serving
	m.states[i] = &next
}

// Stamp writes the snapshot it just built: the constructor is no
// exception.
func (m *Manager) Stamp() *Snapshot {
	s := m.Snapshot()
	s.Epoch = m.epoch // want `write to memory reachable from a stream\.Snapshot in Stamp`
	return s
}

// Rewrite mutates a finished snapshot.
func (m *Manager) Rewrite(s *Snapshot) {
	s.Epoch++ // want `write to memory reachable from a stream\.Snapshot in Rewrite`
}

// FlipInPlace writes a state that published snapshots share.
func (m *Manager) FlipInPlace(i int) {
	m.states[i].Serving = true // want `write to memory reachable from a stream\.Snapshot in FlipInPlace`
}

// Rewire writes an index node that older snapshots still reach.
func (m *Manager) Rewire(rs *RequestState) {
	m.index.kids[0] = rs // want `write to memory reachable from a stream\.Snapshot in Rewire`
}
