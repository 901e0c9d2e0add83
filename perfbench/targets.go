package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"

	"mapa"
	"mapa/internal/policy"
	"mapa/internal/server"
)

// sysTarget drives a System in-process, deciding on the System's own
// stream or, when tenants is set, on the op's tenant stream.
type sysTarget struct {
	sys     *mapa.System
	tenants []*mapa.Tenant
}

func (s *sysTarget) allocate(o *op) (lease, bool, error) {
	req := mapa.JobRequest{NumGPUs: o.n, Shape: o.shape, Sensitive: o.sensitive}
	var l *mapa.Lease
	var err error
	if s.tenants != nil {
		l, err = s.tenants[o.tenant].Allocate(req)
	} else {
		l, err = s.sys.Allocate(req)
	}
	if errors.Is(err, policy.ErrNoAllocation) {
		return lease{}, false, nil
	}
	if err != nil {
		return lease{}, false, err
	}
	return lease{id: l.ID, gpus: l.GPUs, tenant: o.tenant, effBW: l.EffBW, aggBW: l.AggBW}, true, nil
}

func (s *sysTarget) release(l *lease) error { return s.sys.Release(&mapa.Lease{ID: l.id}) }
func (s *sysTarget) mark(g int) error       { return s.sys.MarkUnhealthy(g) }
func (s *sysTarget) restore(g int) error    { return s.sys.Restore(g) }
func (s *sysTarget) checkIdle() error       { return checkSystemIdle(s.sys) }

func checkSystemIdle(sys *mapa.System) error {
	if n := sys.ActiveLeases(); n != 0 {
		return fmt.Errorf("%d leases still active", n)
	}
	if u := sys.UnhealthyGPUs(); len(u) != 0 {
		return fmt.Errorf("GPUs %v still unhealthy", u)
	}
	all := make([]int, sys.NumGPUs())
	for i := range all {
		all[i] = i
	}
	if free := sys.FreeGPUs(); !slices.Equal(free, all) {
		return fmt.Errorf("free GPUs %v, want the healthy set %v", free, all)
	}
	return nil
}

// sender carries one request to the daemon's routes and returns the
// status code and body.
type sender func(method, path string, body []byte) (int, []byte, error)

// connSender sends over one keep-alive connection to addr, dialled on
// first use. The calling goroutine writes each request and reads its
// response itself: net/http's client hands every request to a writer
// and a reader goroutine, and those handoffs put two more thread
// wake-ups into each timed round trip. Any error closes the
// connection; the next send dials again.
func connSender(addr string) sender {
	var conn net.Conn
	var r *bufio.Reader
	var req []byte
	return func(method, path string, body []byte) (int, []byte, error) {
		if conn == nil {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return 0, nil, err
			}
			conn, r = c, bufio.NewReader(c)
		}
		req = fmt.Appendf(req[:0], "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
			method, path, addr, len(body))
		req = append(req, body...)
		code, out, keep, err := roundTrip(conn, r, req)
		if err != nil || !keep {
			conn.Close()
			conn = nil
		}
		return code, out, err
	}
}

// roundTrip writes one request and reads its whole response, reporting
// whether the connection may carry the next one.
func roundTrip(conn net.Conn, r *bufio.Reader, req []byte) (int, []byte, bool, error) {
	if _, err := conn.Write(req); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse(r, nil)
	if err != nil {
		return 0, nil, false, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, !resp.Close, err
}

// handlerSender calls the handler directly: no socket, no net/http
// server.
func handlerSender(h http.Handler) sender {
	return func(method, path string, body []byte) (int, []byte, error) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rw.Code, rw.Body.Bytes(), nil
	}
}

// httpTarget drives mapad's JSON routes through a sender. Each op's
// tenant index names its tenant, so a daemon serves it on that
// tenant's stream. When rec is set, each call records a span named
// spanName around the send.
type httpTarget struct {
	send     sender
	numGPUs  int
	rec      *recorder
	spanName string
}

var tenantNames = func() []string {
	out := make([]string, numTenants)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return out
}()

func (h *httpTarget) post(path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	span := h.rec.open(-1)
	code, out, err := h.send(http.MethodPost, path, body)
	h.rec.close(span, h.spanName)
	if err != nil {
		return 0, err
	}
	if code == http.StatusOK && resp != nil {
		if err := json.Unmarshal(out, resp); err != nil {
			return code, fmt.Errorf("%s response: %w", path, err)
		}
	}
	return code, nil
}

func (h *httpTarget) allocate(o *op) (lease, bool, error) {
	var r server.AllocateResponse
	code, err := h.post("/v1/allocate", server.AllocateRequest{
		Tenant: tenantNames[o.tenant], NumGPUs: o.n, Shape: o.shape, Sensitive: o.sensitive,
	}, &r)
	switch {
	case err != nil:
		return lease{}, false, err
	case code == http.StatusConflict:
		return lease{}, false, nil
	case code != http.StatusOK:
		return lease{}, false, fmt.Errorf("allocate: HTTP %d", code)
	}
	return lease{id: r.LeaseID, gpus: r.GPUs, tenant: o.tenant, effBW: r.EffBW, aggBW: r.AggBW}, true, nil
}

func (h *httpTarget) release(l *lease) error {
	return h.expectOK("/v1/release", server.ReleaseRequest{Tenant: tenantNames[l.tenant], LeaseID: l.id})
}

func (h *httpTarget) mark(g int) error {
	return h.expectOK("/v1/health", server.HealthRequest{Action: "mark", GPUs: []int{g}})
}

func (h *httpTarget) restore(g int) error {
	return h.expectOK("/v1/health", server.HealthRequest{Action: "restore", GPUs: []int{g}})
}

func (h *httpTarget) expectOK(path string, req any) error {
	code, err := h.post(path, req, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d", path, code)
	}
	return err
}

// metrics scrapes /metrics.
func (h *httpTarget) metrics() (map[string]float64, error) {
	code, body, err := h.send(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	return parseMetrics(bytes.NewReader(body))
}

func (h *httpTarget) checkIdle() error {
	m, err := h.metrics()
	if err != nil {
		return err
	}
	if n := m["mapad_leases_active"]; n != 0 {
		return fmt.Errorf("%v leases still active", n)
	}
	if n := m["mapad_gpus_unhealthy"]; n != 0 {
		return fmt.Errorf("%v GPUs still unhealthy", n)
	}
	if free := m["mapad_gpus_free"]; free != float64(h.numGPUs) {
		return fmt.Errorf("%v GPUs free, want all %d", free, h.numGPUs)
	}
	return nil
}
