package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share op; parent indexes the enclosing span (-1 for none).
type span struct {
	name       string
	op, parent int32
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory for a single-driver run. New spans
// nest under the most recently opened, still-open span, which is how
// the server-side span finds the client span of the request it serves.
// A nil recorder records nothing.
type recorder struct {
	epoch time.Time
	cur   atomic.Int32

	mu    sync.Mutex // the loopback server records from its own goroutine
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.cur.Store(-1)
	return r
}

// open starts a span under the current one and makes it current. An op
// of -1 inherits the parent's op.
func (r *recorder) open(op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	parent := r.cur.Load()
	r.mu.Lock()
	if op < 0 && parent >= 0 {
		op = int(r.spans[parent].op)
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{op: int32(op), parent: parent, start: now})
	r.mu.Unlock()
	r.cur.Store(int32(idx))
	return idx
}

// close ends span idx under its final name and makes its parent current.
func (r *recorder) close(idx int, name string) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	s := &r.spans[idx]
	s.name, s.end = name, now
	parent := s.parent
	r.mu.Unlock()
	r.cur.Store(parent)
}

// byOp returns the durations of the spans named name, indexed by op.
func (r *recorder) byOp(name string) map[int32]time.Duration {
	out := make(map[int32]time.Duration)
	for _, s := range r.spans {
		if s.name == name {
			out[s.op] = s.end - s.start
		}
	}
	return out
}

// childSelf returns, for every span named name whose parent is named
// parentName, its duration minus that of its children named child.
func (r *recorder) childSelf(name, child, parentName string) []time.Duration {
	covered := make(map[int32]time.Duration)
	for _, s := range r.spans {
		if s.name == child && s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	var out []time.Duration
	for i, s := range r.spans {
		if s.name == name && s.parent >= 0 && r.spans[s.parent].name == parentName {
			out = append(out, s.end-s.start-covered[int32(i)])
		}
	}
	return out
}

// durations returns the durations of the spans named name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// write appends the spans as tab-separated lines under a path label.
func (r *recorder) write(w *bufio.Writer, path string) {
	for i, s := range r.spans {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\n", path, i, s.name, s.op, s.parent, s.start, s.end)
	}
}

// writeSpans writes every path's spans to file.
func writeSpans(file string, paths []string, recs []*recorder) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "path\tindex\tname\top\tparent\tstart_ns\tend_ns")
	for i, r := range recs {
		r.write(w, paths[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfByOp returns outer[op] - inner[op] for every op both recorded:
// a layer's self time when the inner layer ran in a separate replay of
// the same stream.
func selfByOp(outer, inner map[int32]time.Duration) []time.Duration {
	var out []time.Duration
	for op, d := range outer {
		if in, ok := inner[op]; ok {
			out = append(out, d-in)
		}
	}
	return out
}
