package stream

import (
	"math/rand"
	"testing"
)

// TestIndexPersistentUpdates checks the ID index against a map under
// random inserts, replacements and deletes, with a hash that collides on
// every ID sharing a first byte: splits run down to the collision
// buckets, and every older root must still answer as it did.
func TestIndexPersistentUpdates(t *testing.T) {
	saved := hashID
	t.Cleanup(func() { hashID = saved })
	hashID = func(id string) uint64 { return uint64(id[0]) * 0x9E3779B97F4A7C15 }

	rng := rand.New(rand.NewSource(3))
	type version struct {
		root *trieNode
		want map[string]*RequestState
	}
	var versions []version
	var root *trieNode
	want := map[string]*RequestState{}
	ids := make([]string, 0, 120)
	for c := 'a'; c < 'a'+6; c++ {
		for i := 0; i < 20; i++ {
			ids = append(ids, string(c)+mkID("", i))
		}
	}
	for step := 0; step < 3000; step++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(3) == 0 {
			root = root.without(id)
			delete(want, id)
		} else {
			rs := &RequestState{ID: id, Seq: uint64(step)}
			root = root.with(rs)
			want[id] = rs
		}
		if step%100 == 0 {
			snap := make(map[string]*RequestState, len(want))
			for k, v := range want {
				snap[k] = v
			}
			versions = append(versions, version{root, snap})
		}
	}
	versions = append(versions, version{root, want})
	for i, v := range versions {
		for _, id := range ids {
			if got := v.root.get(id); got != v.want[id] {
				t.Fatalf("version %d: get(%s) = %v, want %v", i, id, got, v.want[id])
			}
		}
	}
	for _, id := range ids {
		root = root.without(id)
	}
	if root != nil {
		t.Fatalf("index not empty after deleting every ID: %+v", root)
	}
}
