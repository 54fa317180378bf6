// Package server is the snapshotimmut clean fixture: reads, value
// copies, private copies, rebinding, and read-only helpers are all legal.
package server

import "lintfix/snapshotimmutclean/stream"

type tenant struct {
	mgr *stream.Manager
}

func (t *tenant) handlePlan() (uint64, int) {
	snap := t.mgr.Snapshot()
	open := len(snap.Requests)
	// A struct value copied out of the snapshot is the caller's to
	// mutate, as long as the write stays in the copy itself.
	rs, _ := snap.Request("a")
	rs.Serving = true
	rs.Strategies = nil
	deref := *snap.Requests[0]
	deref.Serving = true
	// A private copy of shared reference memory is the caller's too.
	own := append([]int(nil), snap.Requests[0].Strategies...)
	own[0] = 1
	for _, r := range snap.Requests {
		open += len(r.Strategies)
	}
	// Rebinding the variable is not a write into the snapshot.
	snap = t.mgr.Snapshot()
	return snap.Epoch, open
}

// peek reads through snapshot memory without writing it.
func peek(rs *stream.RequestState) bool { return rs.Serving }

func (t *tenant) handlePeek(snap *stream.Snapshot) bool {
	return peek(snap.Requests[0])
}
