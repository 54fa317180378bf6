package main

import (
	"fmt"
	"math"
	"slices"

	"stratrec/internal/adpar"
	"stratrec/internal/client"
	"stratrec/internal/server"
	"stratrec/internal/stream"
)

// naivePlan is the reference for a tenant's final plan: a fresh
// stream.Manager fed the tenant's acknowledged ops one at a time, in the
// order of the epoch each ack returned, with no batching.
func naivePlan(cfg server.TenantConfig, acks []ack) (stream.Plan, error) {
	m, err := stream.NewManager(cfg.Set, cfg.Models, cfg.Mode, cfg.Objective, cfg.InitialW)
	if err != nil {
		return stream.Plan{}, err
	}
	ordered, err := epochOrder(acks)
	if err != nil {
		return stream.Plan{}, err
	}
	for _, a := range ordered {
		if err := applyOp(m, a.op); err != nil {
			return stream.Plan{}, fmt.Errorf("naive replay of %s %s: %w", a.op.kind, a.op.id, err)
		}
	}
	return m.Plan(), nil
}

// samePlan checks a plan served over HTTP against a reference plan: the
// same serving and displaced requests in admission order and a
// bit-identical objective.
func samePlan(got server.PlanResponse, want stream.Plan) error {
	if !slices.Equal(got.Serving, want.Serving) {
		return fmt.Errorf("serving sets differ: %d served, reference %d", len(got.Serving), len(want.Serving))
	}
	if !slices.Equal(got.Displaced, want.Displaced) {
		return fmt.Errorf("displaced sets differ: %d displaced, reference %d", len(got.Displaced), len(want.Displaced))
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Errorf("objective %v, reference %v", got.Objective, want.Objective)
	}
	return nil
}

// snapshotPlan renders an in-process snapshot in the HTTP plan's shape.
func snapshotPlan(s *stream.Snapshot) server.PlanResponse {
	p := server.PlanResponse{Epoch: s.Epoch, Objective: s.Plan.Objective,
		Serving: s.Plan.Serving, Displaced: s.Plan.Displaced}
	for _, r := range s.Requests {
		p.Requests = append(p.Requests, server.PlanRequest{ID: r.ID})
	}
	return p
}

// sameState checks that the plan holds exactly the acknowledged state:
// every acknowledged submit not later revoked is open, every acknowledged
// revoke is absent, and the epoch counts every acknowledged mutation.
func sameState(got server.PlanResponse, acks []ack) error {
	open := map[string]bool{}
	for _, r := range got.Requests {
		open[r.ID] = true
	}
	want := map[string]bool{}
	for _, a := range acks {
		switch a.op.kind {
		case opSubmit:
			want[a.op.id] = true
		case opRevoke:
			delete(want, a.op.id)
			if open[a.op.id] {
				return fmt.Errorf("acknowledged revoke of %s, but it is open", a.op.id)
			}
		}
	}
	for id := range want {
		if !open[id] {
			return fmt.Errorf("acknowledged submit %s is not open", id)
		}
	}
	if len(open) != len(want) {
		return fmt.Errorf("%d requests open, %d acknowledged", len(open), len(want))
	}
	if got.Epoch != uint64(len(acks)) {
		return fmt.Errorf("plan epoch %d after %d acknowledged mutations", got.Epoch, len(acks))
	}
	return nil
}

// sameAlternative checks an alternative served over HTTP against a solve
// of the same request on a fresh index: bit-identical parameters and
// distance, and the same strategies.
func sameAlternative(got client.AlternativeResponse, want adpar.Solution, k int) error {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !bits(got.Quality, want.Alternative.Quality) || !bits(got.Cost, want.Alternative.Cost) ||
		!bits(got.Latency, want.Alternative.Latency) || !bits(got.Distance, want.Distance) {
		return fmt.Errorf("alternative for %s: got (%v, %v, %v) at %v, reference (%v, %v, %v) at %v", got.ID,
			got.Quality, got.Cost, got.Latency, got.Distance,
			want.Alternative.Quality, want.Alternative.Cost, want.Alternative.Latency, want.Distance)
	}
	if !slices.Equal(got.Strategies, want.Strategies(k)) || got.Covered != len(want.Covered) {
		return fmt.Errorf("alternative for %s: strategies %v (%d covered), reference %v (%d covered)",
			got.ID, got.Strategies, got.Covered, want.Strategies(k), len(want.Covered))
	}
	return nil
}

// checkAlternatives solves every answered alternative again on a fresh
// index of the tenant's catalog.
func checkAlternatives(cfg server.TenantConfig, alts []altAnswer) error {
	if len(alts) == 0 {
		return nil
	}
	ix, err := adpar.NewIndex(cfg.Set)
	if err != nil {
		return err
	}
	for _, a := range alts {
		sol, err := ix.Solve(a.req)
		if err != nil {
			return err
		}
		if err := sameAlternative(a.resp, sol, a.req.K); err != nil {
			return err
		}
	}
	return nil
}
