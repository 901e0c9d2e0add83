// Command perfbench is the repository's benchmark. It drives the
// allocator through its public layers with a seeded request stream and
// prints every metric with its unit and sample count, then one JSON
// result line. Build and run it through run.sh, from the repository
// root:
//
//	bash perfbench/run.sh --workload commit-inproc --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the
// workload with spans recorded at the layer boundaries and reports the
// per-layer metrics. See README.md for the workloads and the noise
// sources the design excludes.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mapa"
)

// workload is one traffic mix and the machine it runs on.
type workload struct {
	topology string
	spec     streamSpec
	setups   int  // set-ups per run; setup_s is their median
	serve    bool // drive the mapad binary over loopback HTTP
}

const (
	policyName  = "preserve"
	warmMaxGPUs = 5
)

// workloads: README.md gives the reasons for each one, its caps (which
// set the refusal share) and its pass length.
var workloads = map[string]workload{
	"serve-http": {
		topology: "dgx-a100", setups: 15, serve: true,
		spec: streamSpec{allocs: 3000, maxGPUs: 5, numGPUs: 8, caps: []int{8, 8, 9}},
	},
	"commit-inproc": {
		topology: "dgx-a100", setups: 15,
		spec: streamSpec{allocs: 20000, maxGPUs: 5, numGPUs: 8, caps: []int{8, 8, 9}},
	},
	"cluster": {
		topology: "cluster-a100", setups: 1,
		spec: streamSpec{allocs: 20000, maxGPUs: 3, numGPUs: 72, caps: []int{36, 54, 73}},
	},
}

type config struct {
	seed    int64
	budget  time.Duration
	mapad   string
	workdir string
}

// metric is one reported figure; samples is the count it summarizes.
type metric struct {
	name, unit string
	value      float64
	samples    int
}

type result struct {
	metrics   []metric
	total     *tally
	violation error
}

func main() {
	name := flag.String("workload", "", "workload: serve-http, commit-inproc or cluster")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Int("seconds", 10, "seconds of timed passes")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	mapad := flag.String("mapad", "", "mapad binary (serve-http)")
	workdir := flag.String("workdir", ".bench_build", "directory for journals, logs and spans")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (w.serve && *mapad == "") {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-http|commit-inproc|cluster --seed N --seconds S --trace 0|1 [--mapad BIN]")
		os.Exit(2)
	}
	c := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, mapad: *mapad, workdir: *workdir}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d go=%s nproc=%d source=%s\n",
		*name, *seed, *seconds, *trace, runtime.Version(), runtime.NumCPU(), sourceID())
	var res *result
	var err error
	switch {
	case *trace == 1 && w.serve:
		res, err = tracePeel(w, c, *name)
	case *trace == 1:
		res, err = traceInproc(w, c, *name)
	case w.serve:
		res, err = runServe(w, c)
	default:
		res, err = runInproc(w, c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.violation != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", res.violation)
		os.Exit(1)
	}
}

// print writes one line per metric, the operation counts, and the JSON
// result as the last line.
func (r *result) print(out io.Writer) error {
	t := r.total
	for _, m := range r.metrics {
		fmt.Fprintf(out, "metric %-32s %14.4f %-9s samples=%d\n", m.name, m.value, m.unit, m.samples)
	}
	share := 0.0
	if t.allocs > 0 {
		share = float64(t.refused) / float64(t.allocs)
	}
	fmt.Fprintf(out, "ops attempted=%d failed=%d allocates=%d granted=%d refused=%d refusal_share=%.4f\n",
		t.ops, t.failed, t.allocs, t.granted, t.refused, share)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.violation == nil, t.ops, t.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// sourceID names the code under test: the git commit when the checkout
// is a repository, else a digest of its Go sources and module files.
func sourceID() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return "git:" + strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}

// idealTable returns IdealAggregateBandwidth for request sizes
// 0..maxGPUs, computed once, before anything is timed.
func idealTable(topology string, maxGPUs int) ([]float64, error) {
	out := make([]float64, maxGPUs+1)
	for k := 2; k <= maxGPUs; k++ {
		v, err := mapa.IdealAggregateBandwidth(topology, k)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// warmUp runs the untimed cover pass (see coverStream) on t with a
// driver of its own, so the measured driver's op numbering and grant
// record start with the workload's stream.
func warmUp(t target, spec streamSpec, ideal []float64) error {
	d := newDriver(spec.numGPUs, ideal, "warm")
	d.run(t, coverStream(spec), &tally{})
	return d.violation
}

// warm runs the untimed warm-up on d's allocator — the cover pass, then
// one pass of the stream — and returns that pass's outcomes and time.
func warm(d *driver, t target, stream []op, spec streamSpec) (*tally, time.Duration) {
	if err := warmUp(t, spec, d.ideal); err != nil {
		d.fail("warm-up: %v", err)
	}
	tl := &tally{}
	start := time.Now()
	d.run(t, stream, tl)
	return tl, time.Since(start)
}

// timed runs whole passes until the budget is spent and returns their
// outcomes and wall time.
func timed(d *driver, t target, stream []op, budget time.Duration) (*tally, time.Duration) {
	tl := &tally{}
	start := time.Now()
	for time.Since(start) < budget {
		d.run(t, stream, tl)
	}
	return tl, time.Since(start)
}

// endToEnd derives the end-to-end metrics of a timed phase. Placement
// comes from one pass, which every pass repeats grant for grant, so it
// is exact for a seed.
func endToEnd(t, pass *tally, elapsed time.Duration, setups []time.Duration, rssMB float64) []metric {
	alloc := sortDurations(t.alloc)
	p := func(name string, d []time.Duration, q float64) metric {
		sortDurations(d)
		return metric{name, "us", micros(percentile(d, q)), len(d)}
	}
	placed := float64(pass.placed)
	return []metric{
		{"setup_s", "s", median(setups).Seconds(), len(setups)},
		{"ops_per_s", "1/s", float64(t.ops) / elapsed.Seconds(), t.ops},
		p("alloc_p50_us", alloc, 0.50),
		p("alloc_p90_us", alloc, 0.90),
		p("reject_p50_us", t.reject, 0.50),
		p("release_p50_us", t.release, 0.50),
		p("health_p50_us", t.health, 0.50),
		{"peak_rss_mb", "MiB", rssMB, 1},
		{"placement_effbw_gbs", "GB/s", pass.effSum / placed, pass.placed},
		{"placement_aggbw_ratio", "ratio", pass.ratioSum / placed, pass.placed},
	}
}
