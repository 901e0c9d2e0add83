package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"
)

// lease is a granted allocation as the driver tracks it.
type lease struct {
	id     int
	gpus   []int
	tenant int
	effBW  float64
	aggBW  float64
}

// target is one way into the allocator: the System, a Tenant, the HTTP
// handler called directly, or HTTP over a socket.
type target interface {
	// allocate returns granted=false with a nil error for a refusal
	// (ErrNoAllocation / 409); an error is a failed operation.
	allocate(o *op) (l lease, granted bool, err error)
	release(l *lease) error
	mark(gpu int) error
	restore(gpu int) error
	// checkIdle verifies the allocator holds no lease, every GPU is
	// healthy, and every GPU is free.
	checkIdle() error
}

// tally accumulates outcomes.
type tally struct {
	alloc, reject, release, health []time.Duration
	ops, failed                    int
	allocs, granted, refused       int
	effSum, ratioSum               float64
	placed                         int // grants of 2+ GPUs, the placement-metric base
}

func (t *tally) add(o *tally) {
	t.alloc = append(t.alloc, o.alloc...)
	t.reject = append(t.reject, o.reject...)
	t.release = append(t.release, o.release...)
	t.health = append(t.health, o.health...)
	t.ops += o.ops
	t.failed += o.failed
	t.allocs += o.allocs
	t.granted += o.granted
	t.refused += o.refused
	t.effSum += o.effSum
	t.ratioSum += o.ratioSum
	t.placed += o.placed
}

// newTally returns a tally with room for passes passes like ref
// without growing, so a measured run allocates nothing of its own.
func newTally(ref *tally, passes int) *tally {
	return &tally{
		alloc:   make([]time.Duration, 0, passes*len(ref.alloc)),
		reject:  make([]time.Duration, 0, passes*len(ref.reject)),
		release: make([]time.Duration, 0, passes*len(ref.release)),
		health:  make([]time.Duration, 0, passes*len(ref.health)),
	}
}

// driver runs passes of an op stream in a closed loop against one
// allocator and checks every outcome. Before each allocate of k GPUs it
// releases the oldest leases until the GPUs held, plus k, fit the op's
// cap; a cap above the machine size makes some requests find too few
// free GPUs, which is how the workloads get their refusal share.
type driver struct {
	ideal []float64 // IdealAggregateBandwidth by request size
	rec   *recorder // nil when untraced
	names spanNames

	held      []lease // oldest first
	reserved  int     // GPUs held
	owner     []int   // GPU -> lease holding it, 0 when free
	unhealthy []bool
	traced    int    // ops recorded so far; numbers the op spans
	grants    []byte // granted GPU lists of this pass, in grant order
	ref       []byte // grants of the first pass
	violation error
}

// spanNames are a layer's op-span names, built once so recording a
// span allocates nothing.
type spanNames struct{ allocate, reject, failed, release, health, healthHeld string }

func newDriver(numGPUs int, ideal []float64, layer string) *driver {
	return &driver{
		ideal: ideal,
		names: spanNames{layer + ".allocate", layer + ".reject", layer + ".failed",
			layer + ".release", layer + ".health", layer + ".health_held"},
		owner:     make([]int, numGPUs),
		unhealthy: make([]bool, numGPUs),
	}
}

// openOp opens the span of the next op. Ops are numbered among the
// traced ones only, so replays of one stream through different layers,
// each after its own untraced passes, number the same op alike.
func (d *driver) openOp() int {
	if d.rec == nil {
		return -1
	}
	d.traced++
	return d.rec.open(d.traced)
}

func (d *driver) fail(format string, args ...any) {
	if d.violation == nil {
		d.violation = fmt.Errorf(format, args...)
	}
}

// run goes once through the stream, adding outcomes to tl, then
// releases every remaining lease and checks the allocator is idle. Every
// pass must grant exactly what the first pass granted: a pass starts on
// an idle machine, so the same stream must replay the same decisions.
func (d *driver) run(t target, stream []op, tl *tally) {
	d.grants = d.grants[:0]
	for i := range stream {
		switch o := &stream[i]; o.kind {
		case opAlloc:
			d.allocate(t, o, tl)
		case opMark:
			d.health(t, o.gpu, true, tl)
		case opRestore:
			d.health(t, o.gpu, false, tl)
		}
	}
	for len(d.held) > 0 {
		d.releaseOldest(t, tl)
	}
	if err := t.checkIdle(); err != nil {
		d.fail("after the drain: %v", err)
	}
	if d.ref == nil {
		d.ref = append([]byte{}, d.grants...)
	} else if !bytes.Equal(d.grants, d.ref) {
		d.fail("a pass granted other GPUs than the first pass of the same stream")
	}
}

func (d *driver) allocate(t target, o *op, tl *tally) {
	for d.reserved+o.n > o.cap && len(d.held) > 0 {
		d.releaseOldest(t, tl)
	}
	span := d.openOp()
	start := time.Now()
	l, granted, err := t.allocate(o)
	el := time.Since(start)
	tl.ops++
	tl.allocs++
	switch {
	case err != nil:
		d.rec.close(span, d.names.failed)
		tl.failed++
		return
	case !granted:
		d.rec.close(span, d.names.reject)
		tl.refused++
		tl.reject = append(tl.reject, el)
		return
	}
	d.rec.close(span, d.names.allocate)
	tl.granted++
	tl.alloc = append(tl.alloc, el)
	d.checkGrant(o, &l)
	d.reserved += len(l.gpus)
	d.held = append(d.held, l)
	if len(l.gpus) >= 2 {
		tl.placed++
		tl.effSum += l.effBW
		tl.ratioSum += l.aggBW / d.ideal[len(l.gpus)]
	}
}

// checkGrant verifies a grant against the driver's view of the
// machine: the requested number of distinct GPUs, none held by another
// lease and none marked unhealthy.
func (d *driver) checkGrant(o *op, l *lease) {
	if len(l.gpus) != o.n {
		d.fail("lease %d: %d GPUs granted for a %d-GPU request", l.id, len(l.gpus), o.n)
	}
	d.grants = binary.AppendUvarint(d.grants, uint64(len(l.gpus)))
	for _, g := range l.gpus {
		d.grants = binary.AppendUvarint(d.grants, uint64(g))
		if g < 0 || g >= len(d.owner) {
			d.fail("lease %d: GPU %d is not in the machine", l.id, g)
			continue
		}
		if d.owner[g] != 0 {
			d.fail("lease %d: GPU %d is already held by lease %d", l.id, g, d.owner[g])
		}
		if d.unhealthy[g] {
			d.fail("lease %d: GPU %d is marked unhealthy", l.id, g)
		}
		d.owner[g] = l.id
	}
}

func (d *driver) releaseOldest(t target, tl *tally) {
	l := d.held[0]
	copy(d.held, d.held[1:])
	d.held = d.held[:len(d.held)-1]
	d.reserved -= len(l.gpus)
	for _, g := range l.gpus {
		d.owner[g] = 0
	}
	span := d.openOp()
	start := time.Now()
	err := t.release(&l)
	el := time.Since(start)
	d.rec.close(span, d.names.release)
	tl.ops++
	if err != nil {
		tl.failed++
		d.fail("release of lease %d: %v", l.id, err)
		return
	}
	tl.release = append(tl.release, el)
}

// health marks or restores GPU g. Only events on a GPU no lease holds
// are tallied: they change the free set, so every view of every stream
// walks the GPU's candidates; on a held GPU the event skips that work,
// and a mix of the two, five times apart, has an unsteady median.
func (d *driver) health(t target, g int, mark bool, tl *tally) {
	name := d.names.health
	if d.owner[g] != 0 {
		name = d.names.healthHeld
	}
	span := d.openOp()
	start := time.Now()
	var err error
	if mark {
		err = t.mark(g)
	} else {
		err = t.restore(g)
	}
	el := time.Since(start)
	d.rec.close(span, name)
	tl.ops++
	if err != nil {
		tl.failed++
		d.fail("health event on GPU %d: %v", g, err)
		return
	}
	if name == d.names.health {
		tl.health = append(tl.health, el)
	}
	d.unhealthy[g] = mark
}
