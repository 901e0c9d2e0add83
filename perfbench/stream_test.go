package main

import (
	"reflect"
	"testing"
)

var testSpec = streamSpec{allocs: 3000, maxGPUs: 5, numGPUs: 8, caps: []int{8, 8, 9}}

func TestStreamIsSeeded(t *testing.T) {
	a, b := genStream(1, testSpec), genStream(1, testSpec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 gave two different streams")
	}
	if reflect.DeepEqual(a, genStream(2, testSpec)) {
		t.Fatal("seeds 1 and 2 gave the same stream")
	}
}

// Every pass must start and end on an idle, healthy machine and never
// mark a GPU that is already unhealthy.
func TestStreamHealthEventsPair(t *testing.T) {
	marked := make(map[int]bool)
	for _, o := range genStream(7, testSpec) {
		switch o.kind {
		case opMark:
			if marked[o.gpu] {
				t.Fatalf("GPU %d marked twice", o.gpu)
			}
			if len(marked) == maxMarked {
				t.Fatalf("more than %d GPUs marked at once", maxMarked)
			}
			marked[o.gpu] = true
		case opRestore:
			if !marked[o.gpu] {
				t.Fatalf("GPU %d restored while healthy", o.gpu)
			}
			delete(marked, o.gpu)
		}
	}
	if len(marked) != 0 {
		t.Fatalf("stream ends with GPUs %v unhealthy", marked)
	}
}

func TestStreamFollowsSpec(t *testing.T) {
	spec := streamSpec{allocs: 2000, maxGPUs: 3, numGPUs: 72, caps: []int{36, 54, 73}}
	allocs, health := 0, 0
	for _, o := range genStream(3, spec) {
		switch o.kind {
		case opAlloc:
			if o.n < 1 || o.n > spec.maxGPUs {
				t.Fatalf("request for %d GPUs, want 1..%d", o.n, spec.maxGPUs)
			}
			if want := spec.caps[allocs/capBlock%len(spec.caps)]; o.cap != want {
				t.Fatalf("allocate %d has cap %d, want %d", allocs, o.cap, want)
			}
			allocs++
		default:
			if o.gpu < 0 || o.gpu >= spec.numGPUs {
				t.Fatalf("health event on GPU %d of %d", o.gpu, spec.numGPUs)
			}
			health++
		}
	}
	if allocs != spec.allocs {
		t.Fatalf("%d allocates, want %d", allocs, spec.allocs)
	}
	if share := float64(health) / float64(allocs+health); share < 0.01 || share > 0.03 {
		t.Fatalf("health-event share %.3f, want about %.2f", share, healthShare)
	}
}
