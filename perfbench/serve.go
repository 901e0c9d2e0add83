package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// fsyncInterval spaces the journal's background fsyncs. The sync holds
// the journal lock, so every append waits out the disk at each tick; at
// the default 100 ms that put a shared disk's latency into the
// allocate tail.
const fsyncInterval = 5 * time.Second

// daemon is one running mapad process.
type daemon struct {
	cmd  *exec.Cmd
	http *httpTarget
	done chan error // receives the process's exit
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs mapad on the topology with its default flags plus a
// journal synced in the background every fsyncInterval, and returns
// once /metrics reports the warm set resident, with the time from exec
// to then.
func startDaemon(bin, topology, journalDir string, log *os.File, numGPUs int) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-topology", topology, "-policy", policyName,
		"-journal", journalDir, "-fsync", "interval", "-fsync-interval", fsyncInterval.String())
	cmd.Stdout, cmd.Stderr = log, log
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, http: &httpTarget{send: connSender(addr), numGPUs: numGPUs}, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	for {
		if m, err := d.http.metrics(); err == nil && m["mapad_warm"] == 1 {
			setup := time.Since(start)
			if m["mapad_gpus_total"] != float64(numGPUs) {
				d.stop()
				return nil, 0, fmt.Errorf("mapad serves %v GPUs, the workload expects %d", m["mapad_gpus_total"], numGPUs)
			}
			return d, setup, nil
		}
		select {
		case err := <-d.done:
			return nil, 0, fmt.Errorf("mapad exited during start-up: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("mapad not warm after a minute")
		}
	}
}

// stop sends SIGTERM — mapad drains and writes its final snapshot — and
// waits for the exit, killing the process if it does not come.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("mapad: %v", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("mapad did not drain within 20 s")
	}
}

// runServe measures serve-http: mapad started w.setups times, the last
// one serving a closed loop on one keep-alive connection.
func runServe(w workload, c config) (*result, error) {
	log, err := os.Create(filepath.Join(c.workdir, "mapad.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	tmp, err := os.MkdirTemp(c.workdir, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var d *daemon
	var setups []time.Duration
	for i := range w.setups {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var setup time.Duration
		d, setup, err = startDaemon(c.mapad, w.topology, filepath.Join(tmp, fmt.Sprint(i)), log, w.spec.numGPUs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	running := d
	defer func() {
		if running != nil {
			running.stop()
		}
	}()
	ideal, err := idealTable(w.topology, w.spec.maxGPUs)
	if err != nil {
		return nil, err
	}
	dr := newDriver(w.spec.numGPUs, ideal, "http")
	stream := genStream(c.seed, w.spec)
	pass, _ := warm(dr, d.http, stream, w.spec)
	total, elapsed := timed(dr, d.http, stream, c.budget)
	rss, err := peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	running = nil
	if err := d.stop(); err != nil {
		dr.fail("%v", err)
	}
	return &result{metrics: endToEnd(total, pass, elapsed, setups, rss), total: total, violation: dr.violation}, nil
}
