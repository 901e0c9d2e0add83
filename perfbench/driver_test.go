package main

import (
	"strings"
	"testing"

	"mapa"
)

// lowGPUs grants the lowest-numbered GPUs every time, whatever is held:
// an allocator that double-books.
type lowGPUs struct{ next int }

func (f *lowGPUs) allocate(o *op) (lease, bool, error) {
	f.next++
	gpus := make([]int, o.n)
	for i := range gpus {
		gpus[i] = i
	}
	return lease{id: f.next, gpus: gpus, tenant: o.tenant}, true, nil
}
func (f *lowGPUs) release(*lease) error { return nil }
func (f *lowGPUs) mark(int) error       { return nil }
func (f *lowGPUs) restore(int) error    { return nil }
func (f *lowGPUs) checkIdle() error     { return nil }

func TestDriverCatchesDoubleBooking(t *testing.T) {
	d := newDriver(8, make([]float64, 6), "fake")
	stream := []op{{kind: opAlloc, n: 2, cap: 8}, {kind: opAlloc, n: 2, cap: 8}}
	d.run(&lowGPUs{}, stream, &tally{})
	if d.violation == nil || !strings.Contains(d.violation.Error(), "already held") {
		t.Fatalf("violation = %v, want a GPU already held", d.violation)
	}
}

func TestDriverCatchesUnhealthyGrant(t *testing.T) {
	d := newDriver(8, make([]float64, 6), "fake")
	stream := []op{{kind: opMark, gpu: 0}, {kind: opAlloc, n: 1, cap: 8}, {kind: opRestore, gpu: 0}}
	d.run(&lowGPUs{}, stream, &tally{})
	if d.violation == nil || !strings.Contains(d.violation.Error(), "unhealthy") {
		t.Fatalf("violation = %v, want a grant of an unhealthy GPU", d.violation)
	}
}

// A real System passes every check, replays a pass exactly, and the
// cap rule yields refusals.
func TestDriverOnSystem(t *testing.T) {
	w := workloads["commit-inproc"]
	w.spec.allocs = 300
	sys, err := newSystem(w)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := idealTable(w.topology, w.spec.maxGPUs)
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(w.spec.numGPUs, ideal, "system")
	tl := &tally{}
	stream := genStream(5, w.spec)
	target := &sysTarget{sys: sys}
	d.run(target, stream, tl)
	d.run(target, stream, tl)
	if d.violation != nil {
		t.Fatal(d.violation)
	}
	if tl.granted == 0 || tl.refused == 0 || tl.failed != 0 {
		t.Fatalf("granted %d, refused %d, failed %d: want grants and refusals, no failures", tl.granted, tl.refused, tl.failed)
	}
	if err := checkSystemIdle(sys); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Allocate(mapa.JobRequest{NumGPUs: 8}); err != nil {
		t.Fatalf("the drained machine cannot place an 8-GPU job: %v", err)
	}
}
