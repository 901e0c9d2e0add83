package main

import (
	"math/rand"

	"mapa"
)

type opKind uint8

const (
	opAlloc opKind = iota
	opMark
	opRestore
)

// op is one request of a pass. Releases are not listed: the driver
// derives them from the grants by the cap rule (see driver.allocate).
type op struct {
	kind      opKind
	n         int // allocate: GPUs requested
	shape     string
	sensitive bool
	tenant    int // allocate: index into the tenant names
	cap       int // allocate: cap on GPUs held or requested while it runs
	gpu       int // mark/restore: target GPU
}

// shapes are the communication patterns requests draw from.
var shapes = []string{"Ring", "Tree", "AllToAll"}

const (
	numTenants = 64
	// healthShare is the share of a pass's ops that are health events
	// (marks plus restores); at most maxMarked GPUs are unhealthy at once.
	healthShare = 0.02
	maxMarked   = 2
)

// streamSpec fixes the shape of a workload's stream; the seed fixes
// its content.
type streamSpec struct {
	allocs  int   // allocate requests per pass
	maxGPUs int   // largest request; larger paper-mix jobs are skipped
	numGPUs int   // machine size, for health-event targets
	caps    []int // held-GPU caps, cycled in blocks of capBlock allocates
}

const capBlock = 100

// genStream builds one pass's op stream from the seed. Allocate sizes
// and sensitivities follow mapa.PaperJobMix (1-5 GPUs, per-workload
// sensitivity); shapes and tenants are drawn uniformly. A mark of a
// healthy GPU is followed at least 10 ops later by its restore, and every
// GPU is healthy again when the stream ends, so each pass starts and
// ends on an idle, healthy machine.
func genStream(seed int64, spec streamSpec) []op {
	rng := rand.New(rand.NewSource(seed))
	var mix []mapa.Job
	type restore struct{ due, gpu int }
	var pending []restore
	marked := make(map[int]bool)
	var ops []op
	for allocs, mixSeed := 0, seed; allocs < spec.allocs; {
		if len(pending) > 0 && pending[0].due <= len(ops) {
			ops = append(ops, op{kind: opRestore, gpu: pending[0].gpu})
			delete(marked, pending[0].gpu)
			pending = pending[1:]
			continue
		}
		if len(marked) < maxMarked && rng.Float64() < healthShare/2 {
			g := rng.Intn(spec.numGPUs)
			for marked[g] {
				g = rng.Intn(spec.numGPUs)
			}
			marked[g] = true
			ops = append(ops, op{kind: opMark, gpu: g})
			pending = append(pending, restore{due: len(ops) + 10 + rng.Intn(40), gpu: g})
			continue
		}
		for len(mix) == 0 || mix[0].NumGPUs > spec.maxGPUs {
			if len(mix) == 0 {
				mix = mapa.PaperJobMix(mixSeed)
				mixSeed += 7919
			} else {
				mix = mix[1:]
			}
		}
		j := mix[0]
		mix = mix[1:]
		ops = append(ops, op{
			kind:      opAlloc,
			n:         j.NumGPUs,
			shape:     shapes[rng.Intn(len(shapes))],
			sensitive: *j.Sensitive,
			tenant:    rng.Intn(numTenants),
			cap:       spec.caps[allocs/capBlock%len(spec.caps)],
		})
		allocs++
	}
	for _, r := range pending {
		ops = append(ops, op{kind: opRestore, gpu: r.gpu})
	}
	return ops
}

// coverStream requests every (tenant, shape, size) once, each released
// before the next. A tenant stream builds its live view of a shape on
// its first decision for it, and from then on every delta updates that
// view; covering every combination before timing keeps the views'
// upkeep from growing during the timed passes.
func coverStream(spec streamSpec) []op {
	var ops []op
	for t := range numTenants {
		for _, s := range shapes {
			for n := 1; n <= spec.maxGPUs; n++ {
				ops = append(ops, op{kind: opAlloc, n: n, shape: s, tenant: t})
			}
		}
	}
	return ops
}
