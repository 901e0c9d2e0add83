package mapa

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mapa/internal/policy"
)

// decideTwin runs req on two allocate functions and fails unless both
// reach the same outcome: the same lease, or both no allocation.
func decideTwin(t *testing.T, step int, req JobRequest, a, b func(JobRequest) (*Lease, error)) (la, lb *Lease) {
	t.Helper()
	la, errA := a(req)
	lb, errB := b(req)
	switch {
	case errA != nil || errB != nil:
		if !errors.Is(errA, policy.ErrNoAllocation) || !errors.Is(errB, policy.ErrNoAllocation) {
			t.Fatalf("step %d (%+v): outcomes differ: %v vs %v", step, req, errA, errB)
		}
		return nil, nil
	case la.ID != lb.ID || fmt.Sprint(la.GPUs) != fmt.Sprint(lb.GPUs) ||
		la.EffBW != lb.EffBW || la.AggBW != lb.AggBW || la.PreservedBW != lb.PreservedBW:
		t.Fatalf("step %d (%+v): decisions differ:\n %+v\n %+v", step, req, *la, *lb)
	}
	return la, lb
}

// TestTenantCountCostsNothing registers 512 tenants on one System and
// none on its twin: decisions through a tenant match the bare
// System's, and the two do the same work per operation — the same
// allocations and the same live views — so tenancy is free.
func TestTenantCountCostsNothing(t *testing.T) {
	bare, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handles := make([]*Tenant, 512)
	for i := range handles {
		if handles[i], err = crowded.NewTenant(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("registering 512 tenants allocated %d bytes, want a handle's worth each", grew)
	}

	rng := rand.New(rand.NewSource(7))
	shapes := []string{"Ring", "Chain", "Star", "AllToAll"}
	type pair struct{ a, b *Lease }
	var held []pair
	for step := 0; step < 400; step++ {
		if len(held) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(held))
			if err := bare.Release(held[i].a); err != nil {
				t.Fatal(err)
			}
			if err := handles[rng.Intn(len(handles))].Release(held[i].b); err != nil {
				t.Fatal(err)
			}
			held = append(held[:i], held[i+1:]...)
			continue
		}
		req := JobRequest{NumGPUs: 1 + rng.Intn(4), Shape: shapes[rng.Intn(len(shapes))], Sensitive: rng.Intn(2) == 0}
		if la, lb := decideTwin(t, step, req, bare.Allocate, handles[rng.Intn(len(handles))].Allocate); la != nil {
			held = append(held, pair{la, lb})
		}
	}

	for _, p := range held {
		if err := bare.Release(p.a); err != nil {
			t.Fatal(err)
		}
		if err := crowded.Release(p.b); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := bare.CacheStats().LiveViews, crowded.CacheStats().LiveViews; a != b {
		t.Errorf("live views: %d with 0 tenants, %d with 512", a, b)
	}
	req := JobRequest{NumGPUs: 2, Shape: "Ring", Sensitive: true}
	opAllocs := func(allocate func(JobRequest) (*Lease, error), release func(*Lease) error) float64 {
		return testing.AllocsPerRun(100, func() {
			l, err := allocate(req)
			if err != nil {
				t.Fatal(err)
			}
			if err := release(l); err != nil {
				t.Fatal(err)
			}
		})
	}
	tn := handles[0]
	if a, b := opAllocs(bare.Allocate, bare.Release), opAllocs(tn.Allocate, tn.Release); a != b {
		t.Errorf("allocate+release: %v allocs/op with 0 tenants, %v through one of 512", a, b)
	}
}

// TestTenantSurvivesRepartition holds a tenant created before MIG
// re-cuts and checks it keeps deciding exactly like System.Allocate on
// a twin machine through each re-cut, leases straddling them.
func TestTenantSurvivesRepartition(t *testing.T) {
	withTenant, err := NewSystem("dgx-v100", "preserve", WithWarmShapes(3))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewSystem("dgx-v100", "preserve", WithWarmShapes(3))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := withTenant.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	shapes := []string{"Ring", "Chain", "Star"}
	step := 0
	churn := func(n int) {
		for ; n > 0; n-- {
			req := JobRequest{NumGPUs: 1 + rng.Intn(3), Shape: shapes[rng.Intn(len(shapes))], Sensitive: rng.Intn(2) == 0}
			decideTwin(t, step, req, tn.Allocate, twin.Allocate)
			step++
		}
	}
	// A lease on GPUs 0-2 straddles every re-cut below (GPUs 6 and 7).
	if _, err := tn.Allocate(JobRequest{NumGPUs: 3, Shape: "Ring", Sensitive: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Allocate(JobRequest{NumGPUs: 3, Shape: "Ring", Sensitive: true}); err != nil {
		t.Fatal(err)
	}
	for _, slices := range []map[int]int{{7: 2}, {6: 3, 7: 1}} {
		if err := withTenant.Repartition(slices); err != nil {
			t.Fatal(err)
		}
		if err := twin.Repartition(slices); err != nil {
			t.Fatal(err)
		}
		churn(6)
		// Free the machine, leaving only the straddling lease, so the
		// next re-cut finds its GPUs idle.
		for _, s := range []*System{withTenant, twin} {
			for _, l := range s.Leases() {
				if l.ID != 1 {
					if err := s.Release(&Lease{ID: l.ID}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestAllocateRejectsOversizeBeforeBuilding asks for a million GPUs:
// the System must refuse at once, without building the request's
// million-vertex ring, on both allocate entry points.
func TestAllocateRejectsOversizeBeforeBuilding(t *testing.T) {
	s, err := NewSystem("dgx-a100", "preserve")
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{NumGPUs: 1_000_000}
	start := time.Now()
	if _, err := s.Allocate(req); !errors.Is(err, policy.ErrNoAllocation) {
		t.Fatalf("Allocate(%d GPUs) = %v, want ErrNoAllocation", req.NumGPUs, err)
	}
	if _, errs := s.AllocateBatch(req, 2); !errors.Is(errs[0], policy.ErrNoAllocation) || !errors.Is(errs[1], policy.ErrNoAllocation) {
		t.Fatalf("AllocateBatch(%d GPUs) = %v, want ErrNoAllocation", req.NumGPUs, errs)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("refusing %d GPUs took %v", req.NumGPUs, d)
	}
	// Only the error itself is allocated; a ring would take at least
	// one allocation per vertex.
	if got := testing.AllocsPerRun(20, func() { s.Allocate(req) }); got > 8 {
		t.Errorf("refusing %d GPUs: %v allocs/op, want the error's alone", req.NumGPUs, got)
	}
}
