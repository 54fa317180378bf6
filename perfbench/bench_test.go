package main

import (
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"stratrec/internal/adpar"
	"stratrec/internal/server"
)

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// expects every output check to pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			s := workloads[name].tiny()
			res, err := execute(s, 1, 400*time.Millisecond, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := []string{"setup_s", "ops_per_s", "write_p50_ms", "write_p90_ms", "request_p90_ms", "heap_peak_mb"}
			if traced {
				want = want[:0]
				for _, m := range perLayer {
					want = append(want, m.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				}
			}
		}
	}
}

// tinyRun starts a tiny instance of a workload and sends it a short
// measured phase, so the checks have real outputs to judge.
func tinyRun(t *testing.T, name string) (*instance, []server.TenantConfig) {
	t.Helper()
	s := workloads[name].tiny()
	cfgs := []server.TenantConfig{}
	for i := 0; i < s.tenants; i++ {
		cfgs = append(cfgs, catalog(s, i))
	}
	in, err := startInstance(s, 3, cfgs, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.close)
	if err := in.prefill(); err != nil {
		t.Fatal(err)
	}
	in.drive(phaseMeasure, 200*time.Millisecond, 0, &recorder{})
	if len(in.errs) > 0 {
		t.Fatal(in.errs)
	}
	return in, cfgs
}

// wrongPlans returns deliberately wrong copies of a correct plan.
func wrongPlans(p server.PlanResponse) map[string]server.PlanResponse {
	out := map[string]server.PlanResponse{}
	obj := p
	obj.Objective = math.Nextafter(p.Objective, math.Inf(1))
	out["objective off by one ulp"] = obj
	if len(p.Displaced) > 0 {
		moved := p
		moved.Displaced = p.Displaced[1:]
		moved.Serving = append(append([]string(nil), p.Serving...), p.Displaced[0])
		out["displaced request served"] = moved
	}
	if len(p.Serving) > 1 {
		swapped := p
		swapped.Serving = append([]string(nil), p.Serving...)
		swapped.Serving[0], swapped.Serving[1] = swapped.Serving[1], swapped.Serving[0]
		out["serving order swapped"] = swapped
	}
	extra := p
	extra.Requests = append(append([]server.PlanRequest(nil), p.Requests...), server.PlanRequest{ID: "never-submitted"})
	out["unacknowledged request open"] = extra
	return out
}

// TestChecksFire feeds each output check a deliberately wrong expectation
// and expects it to fail, after confirming it passes on the right one.
func TestChecksFire(t *testing.T) {
	in, cfgs := tinyRun(t, "durable-batch-1k")
	acks, err := in.acks(0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := in.conns[0].c.Plan(t.Context(), in.names[0])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := naivePlan(cfgs[0], acks)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePlan(plan, ref); err != nil {
		t.Fatalf("plan vs naive replay: %v", err)
	}
	if err := sameState(plan, acks); err != nil {
		t.Fatalf("acknowledged state: %v", err)
	}
	fired := 0
	for what, wrong := range wrongPlans(plan) {
		err1 := samePlan(wrong, ref)
		err2 := sameState(wrong, acks)
		if err1 == nil && err2 == nil {
			t.Errorf("%s: neither the plan check nor the state check fired", what)
		}
		fired++
	}
	if fired < 3 {
		t.Fatalf("only %d wrong plans built; the tiny run left too few served or displaced requests", fired)
	}

	// The acknowledged-state check fires on a wrong ack log too.
	lost := append(append([]ack(nil), acks...), ack{epoch: uint64(len(acks) + 1), op: op{kind: opSubmit, id: "lost"}})
	if sameState(plan, lost) == nil {
		t.Error("state check missed an acknowledged submit that is not open")
	}
	if _, err := naivePlan(cfgs[0], acks[1:]); err == nil {
		t.Error("naive replay accepted an ack log with a missing epoch")
	}

	// Recovery: the recovered state must equal the acked state.
	in.windDown()
	in.close()
	srv, err := recoverServer(in)
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := srv.Tenant(in.names[0])
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotPlan(tenant.Snapshot())
	good := make([]server.PlanResponse, len(in.names))
	for i, name := range in.names {
		tn, err := srv.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		good[i] = snapshotPlan(tn.Snapshot())
	}
	srv.Close()
	if acks, err = in.acks(0); err != nil {
		t.Fatal(err)
	}
	if ref, err = naivePlan(cfgs[0], acks); err != nil {
		t.Fatal(err)
	}
	if err := samePlan(got, ref); err != nil {
		t.Fatalf("recovered plan: %v", err)
	}
	if err := sameState(got, acks); err != nil {
		t.Fatalf("recovered state: %v", err)
	}
	for what, wrong := range wrongPlans(got) {
		if samePlan(wrong, ref) == nil && sameState(wrong, acks) == nil {
			t.Errorf("recovery check: %s went unnoticed", what)
		}
	}

	// Layer replay: its final plan is compared with the HTTP plan.
	if _, err := replayLayers(in, t.TempDir(), newTracer(), good); err != nil {
		t.Fatalf("layer replay on the right plans: %v", err)
	}
	for what, wrong := range wrongPlans(got) {
		if what == "unacknowledged request open" {
			continue // the replay compares plans, not open sets
		}
		bad := append([]server.PlanResponse(nil), good...)
		bad[0] = wrong
		if _, err := replayLayers(in, t.TempDir(), newTracer(), bad); err == nil {
			t.Errorf("layer replay check: %s went unnoticed", what)
		}
	}
}

// TestAlternativeCheckFires checks served alternatives against a fresh
// solve and expects a perturbed answer to fail.
func TestAlternativeCheckFires(t *testing.T) {
	in, cfgs := tinyRun(t, "displaced-mix")
	alts, err := in.answers(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(alts) == 0 {
		t.Fatal("the tiny mix run answered no alternative")
	}
	if err := checkAlternatives(cfgs[0], alts); err != nil {
		t.Fatal(err)
	}
	ix, err := adpar.NewIndex(cfgs[0].Set)
	if err != nil {
		t.Fatal(err)
	}
	a := alts[0]
	sol, err := ix.Solve(a.req)
	if err != nil {
		t.Fatal(err)
	}
	wrong := a.resp
	wrong.Distance = math.Nextafter(wrong.Distance, 0)
	if sameAlternative(wrong, sol, a.req.K) == nil {
		t.Error("alternative check missed a distance off by one ulp")
	}
	wrong = a.resp
	wrong.Strategies = append([]int{-1}, wrong.Strategies[1:]...)
	if sameAlternative(wrong, sol, a.req.K) == nil {
		t.Error("alternative check missed a wrong strategy")
	}
}

// TestReserve checks that a reservation outside the heap keeps what it
// was given and takes appends up to its room without moving.
func TestReserve(t *testing.T) {
	var a arena
	defer a.free()
	s := reserve(&a, []int32{1, 2, 3}, 100)
	if !reflect.DeepEqual(s, []int32{1, 2, 3}) || cap(s) != 103 {
		t.Fatalf("reserved %v with room %d", s, cap(s))
	}
	first := &s[0]
	for i := 0; i < 100; i++ {
		s = append(s, int32(i))
	}
	if &s[0] != first || s[102] != 99 {
		t.Error("appends within the room moved the slice")
	}
}

// TestSeed checks that the generated traffic is a function of the seed
// and that the catalogs, the benchmark's fixed data set, are not.
func TestSeed(t *testing.T) {
	gen := func(name string, seed int64) []op {
		s := workloads[name]
		g := newGenerator(s, seed, 0)
		var ops []op
		for i := 0; i < s.pool+200; i++ {
			ops = append(ops, g.next())
		}
		return ops
	}
	for _, name := range workloadNames() {
		a, b, c := gen(name, 7), gen(name, 7), gen(name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different traffic", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same traffic", name)
		}
		ca, cb := catalog(workloads[name].tiny(), 0), catalog(workloads[name].tiny(), 0)
		if !reflect.DeepEqual(ca.Set, cb.Set) || !reflect.DeepEqual(ca.Models, cb.Models) {
			t.Errorf("%s: the catalog is not fixed", name)
		}
	}
}
