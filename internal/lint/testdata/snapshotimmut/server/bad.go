// Package server is the snapshotimmut flagging fixture: writes into
// published snapshot memory, direct, through value copies, through
// builtins, and laundered.
package server

import "lintfix/snapshotimmut/stream"

type tenant struct {
	mgr *stream.Manager
}

// handlePlan mutates the snapshot it just obtained: a lock-free reader
// elsewhere observes the write mid-flight.
func (t *tenant) handlePlan() uint64 {
	snap := t.mgr.Snapshot()
	snap.Epoch = 42 // want `write to memory reachable from a stream\.Snapshot in handlePlan`
	return snap.Epoch
}

// handleServe writes a shared RequestState reached through the snapshot.
func (t *tenant) handleServe(snap *stream.Snapshot) {
	snap.Requests[0].Serving = true // want `write to memory reachable from a stream\.Snapshot in handleServe`
}

// handleAlias launders the write through a local alias: the slice
// header is a copy, its backing array is still snapshot memory.
func (t *tenant) handleAlias(snap *stream.Snapshot) {
	reqs := snap.Requests
	reqs[0] = nil // want `write to memory reachable from a stream\.Snapshot in handleAlias`
}

// handleRange writes every shared state it ranges over.
func (t *tenant) handleRange(snap *stream.Snapshot) {
	for _, rs := range snap.Requests {
		rs.Serving = false // want `write to memory reachable from a stream\.Snapshot in handleRange`
	}
}

// handleCopy writes through the reference field of a value copy: the
// copy is the caller's, the Strategies array it points at is shared.
func (t *tenant) handleCopy(snap *stream.Snapshot) {
	rs, _ := snap.Request("a")
	rs.Strategies[0] = 1 // want `write to memory reachable from a stream\.Snapshot in handleCopy`
	p := snap.Plan
	p.Serving[0] = "" // want `write to memory reachable from a stream\.Snapshot in handleCopy`
	deref := *snap.Requests[0]
	deref.Strategies[0] = 2 // want `write to memory reachable from a stream\.Snapshot in handleCopy`
}

// lookup hands out a RequestState value; whoever receives one holds
// shared Strategies.
func (t *tenant) lookup(id string) stream.RequestState {
	rs, _ := t.mgr.Snapshot().Request(id)
	return rs
}

func (t *tenant) handleLookup() {
	rs := t.lookup("a")
	rs.Strategies[0] = 3 // want `write to memory reachable from a stream\.Snapshot in handleLookup`
}

// handleBuiltins writes snapshot memory through copy, clear and append
// (which fills a reslice's spare capacity in place).
func (t *tenant) handleBuiltins(snap *stream.Snapshot) {
	copy(snap.Plan.Serving, []string{"x"}) // want `write to memory reachable from a stream\.Snapshot in handleBuiltins`
	rs, _ := snap.Request("a")
	clear(rs.Strategies)               // want `write to memory reachable from a stream\.Snapshot in handleBuiltins`
	_ = append(snap.Requests[:1], nil) // want `write to memory reachable from a stream\.Snapshot in handleBuiltins`
}

// zero writes through its parameter; zeroVia forwards it. Passing
// snapshot memory down this two-level chain is the laundering the
// parameter-mutation fact exists to catch.
func zero(xs []int) { xs[0] = 0 }

func zeroVia(xs []int) { zero(xs) }

func (t *tenant) handleScrub(snap *stream.Snapshot) {
	zeroVia(snap.Requests[0].Strategies) // want `passes memory reachable from a stream\.Snapshot to zeroVia, which writes through it`
	rs, _ := snap.Request("a")
	zeroVia(rs.Strategies) // want `passes memory reachable from a stream\.Snapshot to zeroVia, which writes through it`
}
