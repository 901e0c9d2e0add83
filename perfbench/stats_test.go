package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.505, 51}} {
		if got := percentile(d, c.q); got != c.want {
			t.Errorf("p%g of 1..100 = %d, want %d", c.q*100, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %d, want 7", got)
	}
	if got := median([]time.Duration{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %d, want 2", got)
	}
}

const scrape = `# HELP mapad_requests_total HTTP requests served, by route and status code.
# TYPE mapad_requests_total counter
mapad_requests_total{route="allocate",code="200"} 12
mapad_requests_total{route="allocate",code="409"} 3
mapad_allocate_latency_seconds_bucket{le="+Inf"} 15
mapad_allocate_latency_seconds_sum 0.0015
mapad_allocate_latency_seconds_count 15
mapad_warm 1
`

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(scrape))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(strings.NewReplacer(
		"} 12", "} 20", "sum 0.0015", "sum 0.0035", "count 15", "count 25").Replace(scrape)))
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, `mapad_requests_total{route="allocate",code="200"}`); got != 8 {
		t.Errorf("requests delta = %v, want 8", got)
	}
	if got := delta(before, after, `mapad_requests_total{route="allocate",code="409"}`); got != 0 {
		t.Errorf("unchanged series delta = %v, want 0", got)
	}
	mean := delta(before, after, "mapad_allocate_latency_seconds_sum") / delta(before, after, "mapad_allocate_latency_seconds_count")
	if math.Abs(mean-0.0002) > 1e-12 {
		t.Errorf("latency mean over the delta = %v, want 0.0002", mean)
	}
	if got := delta(before, after, "mapad_journal_fsyncs_total"); got != 0 {
		t.Errorf("absent series delta = %v, want 0", got)
	}
	if before["mapad_warm"] != 1 {
		t.Errorf("mapad_warm = %v, want 1", before["mapad_warm"])
	}
	if _, err := parseMetrics(strings.NewReader("mapad_warm one\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestPeakRSS(t *testing.T) {
	mb, err := parseVmHWM(strings.NewReader("Name:\tmapad\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"))
	if err != nil || mb != 50 {
		t.Fatalf("VmHWM 51200 kB = %v MiB, %v; want 50 MiB", mb, err)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS:\t 1 kB\n")); err == nil {
		t.Error("a status without VmHWM parsed")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t 1 MB\n")); err == nil {
		t.Error("a VmHWM in another unit parsed")
	}
	self, err := peakRSSMB("/proc/self/status")
	if err != nil || self <= 0 {
		t.Fatalf("own peak RSS = %v MiB, %v", self, err)
	}
}
