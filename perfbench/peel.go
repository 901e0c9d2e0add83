package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mapa"
	"mapa/internal/journal"
	"mapa/internal/server"
)

// peelPath is one replay of the serve-http stream through one more
// layer than the path before it.
type peelPath struct {
	name   string
	target target
	d      *driver
	rec    *recorder
	warm   *tally
	warmT  time.Duration
	traced *tally
}

// spanHandler records a server.serve span around each request the
// handler serves, under the client span that is open at the time.
func spanHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		span := rec.open(-1)
		h.ServeHTTP(w, r)
		rec.close(span, "server.serve")
	})
}

const peelAllocs = 500

// tracePeel is serve-http's traced run. One driver per path replays the
// same stream through four fresh Systems — System, a Tenant per op with
// 64 tenant streams, the mapad handler called directly, and the handler
// behind net/http on a loopback socket — so each layer's self time is a
// difference on an identical state trajectory. The in-process daemon is
// wired like mapad: a journal synced in the background, and
// http.TimeoutHandler outside the handler.
func tracePeel(w workload, c config, name string) (*result, error) {
	tmp, err := os.MkdirTemp(c.workdir, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	ideal, err := idealTable(w.topology, w.spec.maxGPUs)
	if err != nil {
		return nil, err
	}
	// The peel replays the stream through four paths, three of them at
	// ~2 ms an allocate, so it takes a shorter stream than the daemon.
	w.spec.allocs = peelAllocs
	stream := genStream(c.seed, w.spec)
	names := []string{"system", "tenant", "server", "http"}
	paths := make([]*peelPath, len(names))
	var sp *systemPath
	var handler *httpTarget
	for i, n := range names {
		sys, err := newSystem(w, mapa.WithJournal(filepath.Join(tmp, n), journal.Options{Fsync: journal.FsyncInterval, Interval: fsyncInterval}))
		if err != nil {
			return nil, err
		}
		// The journals are temporary, removed with tmp; their final
		// snapshots are not part of the measurement.
		defer sys.Close()
		p := &peelPath{name: n, rec: newRecorder()}
		switch n {
		case "system":
			sp = newSystemPath(sys, ideal, w.spec, stream)
			p.d, p.rec, p.warmT = sp.d, sp.rec, sp.warmT
			paths[i] = p
			continue
		case "tenant":
			t := &sysTarget{sys: sys}
			for range numTenants {
				tn, err := sys.NewTenant()
				if err != nil {
					return nil, err
				}
				t.tenants = append(t.tenants, tn)
			}
			p.target = t
		case "server":
			handler = &httpTarget{send: handlerSender(server.New(sys, server.Options{})), numGPUs: w.spec.numGPUs, rec: p.rec, spanName: "server.serve"}
			p.target = handler
		case "http":
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			hs := &http.Server{
				Handler:           http.TimeoutHandler(spanHandler(server.New(sys, server.Options{}), p.rec), 30*time.Second, `{"error":"request deadline exceeded"}`),
				ReadHeaderTimeout: 10 * time.Second,
				ReadTimeout:       30 * time.Second,
				WriteTimeout:      time.Minute,
				IdleTimeout:       2 * time.Minute,
			}
			served := make(chan error, 1)
			go func() { served <- hs.Serve(ln) }()
			defer func() {
				hs.Close()
				<-served
			}()
			p.target = &httpTarget{send: connSender(ln.Addr().String()), numGPUs: w.spec.numGPUs, rec: p.rec, spanName: "http.roundtrip"}
		}
		p.d = newDriver(w.spec.numGPUs, ideal, n)
		p.warm, p.warmT = warm(p.d, p.target, stream, w.spec)
		paths[i] = p
	}

	warm := []time.Duration{sp.warmT}
	for _, p := range paths {
		warm = append(warm, p.warmT)
	}
	passes := passesFor(c.budget, warm...)
	sp.prepare(passes)
	paths[0].traced = sp.traced
	for _, p := range paths[1:] {
		p.traced = newTally(p.warm, passes)
		// The targets' own spans from the warm-up go; the driver's
		// start now.
		p.rec.spans = make([]span, 0, 3*passes*p.warm.ops+16)
		p.d.rec = p.rec
	}
	before, err := handler.metrics()
	if err != nil {
		return nil, err
	}
	// The paths take turns pass by pass, so a drift in machine speed
	// weighs on each alike and the per-op differences between them stay
	// layer costs.
	for i := range passes {
		sp.step(i)
		for _, p := range paths[1:] {
			p.d.run(p.target, stream, p.traced)
		}
	}
	after, err := handler.metrics()
	if err != nil {
		return nil, err
	}

	res := &result{total: &tally{}}
	recs := make([]*recorder, len(paths))
	for i, p := range paths {
		recs[i] = p.rec
		res.total.add(p.traced)
		if res.violation == nil {
			res.violation = p.d.violation
		}
		if res.violation == nil && !bytes.Equal(p.d.ref, paths[0].d.ref) {
			res.violation = fmt.Errorf("the %s path granted other GPUs than the system path on the same stream", p.name)
		}
	}
	res.total.add(sp.untraced)

	p50 := func(name string, d []time.Duration) metric {
		sortDurations(d)
		return metric{name, "us", micros(percentile(d, 0.5)), len(d)}
	}
	handlerOps := float64(paths[2].traced.ops)
	allocCalls := delta(before, after, "mapad_allocate_latency_seconds_count")
	res.metrics = []metric{
		p50("http.self_us_p50", recs[3].childSelf("http.roundtrip", "server.serve", "http.allocate")),
		p50("server.self_us_p50", selfByOp(recs[2].byOp("server.serve"), recs[1].byOp("tenant.allocate"))),
		{"server.rejected_429", "count", delta(before, after, "mapad_admission_rejected_total"), paths[2].traced.allocs},
		{"server.alloc_call_us_mean", "us", 1e6 * delta(before, after, "mapad_allocate_latency_seconds_sum") / allocCalls, int(allocCalls)},
		p50("tenant.self_us_p50", selfByOp(recs[1].byOp("tenant.allocate"), recs[0].byOp("system.allocate"))),
		{"tenant.streams", "count", after["mapad_tenants"], 1},
	}
	res.metrics = append(res.metrics, sp.layerMetrics()...)
	res.metrics = append(res.metrics,
		metric{"journal.records_per_op", "records/op", delta(before, after, "mapad_journal_records_total") / handlerOps, paths[2].traced.ops},
		metric{"journal.bytes_per_op", "B/op", delta(before, after, "mapad_journal_bytes_total") / handlerOps, paths[2].traced.ops},
		metric{"journal.fsyncs", "count", delta(before, after, "mapad_journal_fsyncs_total"), paths[2].traced.ops},
		sp.overhead())
	if err := writeSpans(spanFile(c, name), names, recs); err != nil {
		return nil, err
	}
	return res, nil
}
