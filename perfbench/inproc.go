package main

import (
	"fmt"
	"runtime"
	"time"

	"mapa"
	"mapa/internal/match"
)

// newSystem builds the workload's System the way every in-process path
// does: the workload's machine, the preserve policy, shapes up to
// warmMaxGPUs warmed during construction.
func newSystem(w workload, opts ...mapa.SystemOption) (*mapa.System, error) {
	sys, err := mapa.NewSystem(w.topology, policyName, append([]mapa.SystemOption{mapa.WithWarmShapes(warmMaxGPUs)}, opts...)...)
	if err != nil {
		return nil, err
	}
	if sys.NumGPUs() != w.spec.numGPUs {
		return nil, fmt.Errorf("%s has %d GPUs, the workload expects %d", w.topology, sys.NumGPUs(), w.spec.numGPUs)
	}
	if err := checkSystemIdle(sys); err != nil {
		return nil, fmt.Errorf("new %s system: %v", w.topology, err)
	}
	return sys, nil
}

// runInproc measures an in-process workload: one goroutine drives the
// System directly.
func runInproc(w workload, c config) (*result, error) {
	var sys *mapa.System
	var setups []time.Duration
	for range w.setups {
		sys = nil
		runtime.GC()
		start := time.Now()
		s, err := newSystem(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		sys = s
	}
	ideal, err := idealTable(w.topology, w.spec.maxGPUs)
	if err != nil {
		return nil, err
	}
	d := newDriver(w.spec.numGPUs, ideal, "system")
	t, stream := &sysTarget{sys: sys}, genStream(c.seed, w.spec)
	pass, _ := warm(d, t, stream, w.spec)
	// Read before the timed passes: their latency samples, which grow
	// with the run, would count against the System.
	rss, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return nil, err
	}
	total, elapsed := timed(d, t, stream, c.budget)
	return &result{metrics: endToEnd(total, pass, elapsed, setups, rss), total: total, violation: d.violation}, nil
}

// systemPath is the traced run's System layer: warm-up, then traced
// and untraced passes alternating, so a drift in machine speed weighs
// on both alike and their difference is the tracing overhead. The
// match-pipeline counters are taken over the first traced pass (always
// the second pass of the stream, so they repeat exactly for a seed) and
// the Go allocation counters over the untraced passes.
type systemPath struct {
	sys    *mapa.System
	d      *driver
	rec    *recorder
	stream []op
	warm   *tally
	warmT  time.Duration

	traced, untraced *tally
	firstPass        mapa.CacheStats // counters over the first traced pass
	firstSearches    uint64
	firstAllocs      int
	mallocs, bytes   uint64 // Go heap allocations over the untraced passes
}

func newSystemPath(sys *mapa.System, ideal []float64, spec streamSpec, stream []op) *systemPath {
	p := &systemPath{sys: sys, d: newDriver(sys.NumGPUs(), ideal, "system"), rec: newRecorder(), stream: stream}
	p.warm, p.warmT = warm(p.d, &sysTarget{sys: sys}, stream, spec)
	return p
}

// prepare sizes the tallies and span storage for passes passes before
// any is measured, so neither grows during the measurement.
func (p *systemPath) prepare(passes int) {
	p.traced, p.untraced = newTally(p.warm, passes), newTally(p.warm, passes)
	p.rec.spans = make([]span, 0, passes*p.warm.ops+16)
}

// step runs the i-th traced pass and then an untraced one.
func (p *systemPath) step(i int) {
	t := &sysTarget{sys: p.sys}
	p.d.rec = p.rec
	if i == 0 {
		cs, searches := p.sys.CacheStats(), match.Searches()
		p.d.run(t, p.stream, p.traced)
		p.firstPass = statsDelta(cs, p.sys.CacheStats())
		p.firstSearches = match.Searches() - searches
		p.firstAllocs = p.traced.allocs
	} else {
		p.d.run(t, p.stream, p.traced)
	}
	p.d.rec = nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.d.run(t, p.stream, p.untraced)
	runtime.ReadMemStats(&after)
	p.mallocs += after.Mallocs - before.Mallocs
	p.bytes += after.TotalAlloc - before.TotalAlloc
}

func statsDelta(a, b mapa.CacheStats) mapa.CacheStats {
	return mapa.CacheStats{
		TableServed: b.TableServed - a.TableServed,
		ViewServed:  b.ViewServed - a.ViewServed, FilterServed: b.FilterServed - a.FilterServed,
		Universes: b.Universes, UniversesIncomplete: b.UniversesIncomplete, Repairs: b.Repairs,
		UniverseBuildTime: b.UniverseBuildTime, TableBuildTime: b.TableBuildTime,
	}
}

// layerMetrics returns the System and match-pipeline metrics.
func (p *systemPath) layerMetrics() []metric {
	cs := p.firstPass
	ops := float64(p.untraced.ops)
	ratio := 0.0
	if p.firstAllocs > 0 {
		ratio = float64(cs.TableServed) / float64(p.firstAllocs)
	}
	q := func(name, span string, pct float64) metric {
		d := sortDurations(p.rec.durations(span))
		return metric{name, "us", micros(percentile(d, pct)), len(d)}
	}
	count := func(name string, v uint64) metric { return metric{name, "count", float64(v), p.firstAllocs} }
	return []metric{
		q("system.alloc_us_p50", "system.allocate", 0.50),
		q("system.alloc_us_p99", "system.allocate", 0.99),
		q("system.release_us_p50", "system.release", 0.50),
		q("system.health_us_p50", "system.health", 0.50),
		{"system.allocs_per_op", "allocs/op", float64(p.mallocs) / ops, p.untraced.ops},
		{"system.bytes_per_op", "B/op", float64(p.bytes) / ops, p.untraced.ops},
		count("matchcache.table_served", cs.TableServed),
		count("matchcache.view_served", cs.ViewServed-cs.TableServed),
		count("matchcache.filter_served", cs.FilterServed),
		count("matchcache.fallback", p.firstSearches),
		{"matchcache.table_served_ratio", "ratio", ratio, p.firstAllocs},
		{"matchcache.build_s", "s", (cs.UniverseBuildTime + cs.TableBuildTime).Seconds(), cs.Universes},
		{"matchcache.universes", "count", float64(cs.Universes), 1},
		{"matchcache.universes_incomplete", "count", float64(cs.UniversesIncomplete), 1},
		{"matchcache.repairs", "count", float64(cs.Repairs), 1},
	}
}

// overhead is the traced minus the untraced allocate p50 on the System
// path, same stream, same process.
func (p *systemPath) overhead() metric {
	tr := percentile(sortDurations(p.traced.alloc), 0.5)
	un := percentile(sortDurations(p.untraced.alloc), 0.5)
	return metric{"trace.overhead_alloc_p50_us", "us", micros(tr - un), len(p.traced.alloc)}
}

// passesFor picks how many passes per path fit the budget, given the
// warm-up pass times of every pass the traced run will repeat.
func passesFor(budget time.Duration, warm ...time.Duration) int {
	var sum time.Duration
	for _, w := range warm {
		sum += w
	}
	return max(1, int(budget/sum))
}

// traceInproc is the traced run of an in-process workload: the System
// path only; the HTTP, server, tenant and journal layers are not on it
// and report 0.
func traceInproc(w workload, c config, name string) (*result, error) {
	sys, err := newSystem(w)
	if err != nil {
		return nil, err
	}
	ideal, err := idealTable(w.topology, w.spec.maxGPUs)
	if err != nil {
		return nil, err
	}
	p := newSystemPath(sys, ideal, w.spec, genStream(c.seed, w.spec))
	passes := passesFor(c.budget, p.warmT, p.warmT)
	p.prepare(passes)
	for i := range passes {
		p.step(i)
	}
	ms := []metric{
		{"http.self_us_p50", "us", 0, 0},
		{"server.self_us_p50", "us", 0, 0},
		{"server.rejected_429", "count", 0, 0},
		{"server.alloc_call_us_mean", "us", 0, 0},
		{"tenant.self_us_p50", "us", 0, 0},
		{"tenant.streams", "count", 0, 0},
	}
	ms = append(ms, p.layerMetrics()...)
	ms = append(ms,
		metric{"journal.records_per_op", "records/op", 0, 0},
		metric{"journal.bytes_per_op", "B/op", 0, 0},
		metric{"journal.fsyncs", "count", 0, 0},
		p.overhead())
	if err := writeSpans(spanFile(c, name), []string{"system"}, []*recorder{p.rec}); err != nil {
		return nil, err
	}
	total := &tally{}
	total.add(p.traced)
	total.add(p.untraced)
	return &result{metrics: ms, total: total, violation: p.d.violation}, nil
}

func spanFile(c config, workload string) string {
	return fmt.Sprintf("%s/spans-%s.tsv", c.workdir, workload)
}
