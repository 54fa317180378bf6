package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"stratrec/internal/batch"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// BenchmarkRevokeStorm measures the revoke path under churn: a large open
// pool drained in random order. Before the ID→position order index this
// was a linear scan + slice splice per revoke (quadratic over the storm);
// with tombstones + amortized compaction each revoke's pool bookkeeping is
// O(1) amortized, leaving the replan itself as the dominant cost.
func BenchmarkRevokeStorm(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("pool=%d", n), func(b *testing.B) {
			gen := synth.DefaultConfig(synth.Uniform)
			rng := rand.New(rand.NewSource(7))
			set := gen.Strategies(rng, 32)
			models := gen.Models(rng, set)
			reqs := gen.Requests(rng, n, 3)
			perm := rand.New(rand.NewSource(11)).Perm(n)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := NewManager(set, models, workforce.MaxCase, batch.Throughput, 0.7)
				if err != nil {
					b.Fatal(err)
				}
				for j := range reqs {
					reqs[j].ID = fmt.Sprintf("d%d", j)
					if _, err := m.Submit(reqs[j]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, j := range perm {
					if err := m.Revoke(fmt.Sprintf("d%d", j)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkRevokeOnly isolates the pool bookkeeping from the replan: the
// manager uses a one-strategy catalog so replanning is trivially cheap and
// the order-index cost dominates.
func BenchmarkRevokeOnly(b *testing.B) {
	const n = 5000
	gen := synth.DefaultConfig(synth.Uniform)
	rng := rand.New(rand.NewSource(7))
	set := gen.Strategies(rng, 1)
	models := gen.Models(rng, set)
	reqs := gen.Requests(rng, n, 1)
	perm := rand.New(rand.NewSource(11)).Perm(n)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := NewManager(set, models, workforce.MaxCase, batch.Throughput, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		for j := range reqs {
			reqs[j].ID = fmt.Sprintf("d%d", j)
			if _, err := m.Submit(reqs[j]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for _, j := range perm {
			if err := m.Revoke(fmt.Sprintf("d%d", j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPublishCycle measures one coalesced cycle at a steady pool
// size: revoke a random open request, submit a fresh one, Commit, and
// publish a Snapshot. Each RequestState is shared until its request
// changes and the ID index copies only the changed paths, so the
// allocations per cycle follow the changed set, not the pool: only the
// publish's three flat lists grow with the pool, and each is one
// allocation at any size.
func BenchmarkPublishCycle(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("pool=%d", n), func(b *testing.B) {
			gen := synth.DefaultConfig(synth.Uniform)
			rng := rand.New(rand.NewSource(7))
			set := gen.Strategies(rng, 32)
			m, err := NewManager(set, gen.Models(rng, set), workforce.MaxCase, batch.Throughput, 0.7)
			if err != nil {
				b.Fatal(err)
			}
			reqs := gen.Requests(rng, n+b.N, 3)
			for j := range reqs {
				reqs[j].ID = fmt.Sprintf("d%d", j)
			}
			open := make([]string, 0, n)
			for _, d := range reqs[:n] {
				if _, err := m.Submit(d); err != nil {
					b.Fatal(err)
				}
				open = append(open, d.ID)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := rng.Intn(len(open))
				m.Begin()
				if err := m.Revoke(open[j]); err != nil {
					b.Fatal(err)
				}
				d := reqs[n+i]
				if _, err := m.Submit(d); err != nil {
					b.Fatal(err)
				}
				open[j] = d.ID
				m.Commit()
				sink = m.Snapshot()
			}
		})
	}
}

var sink *Snapshot
