package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestConnSender checks the benchmark's loopback client: requests
// reach the handler intact, one connection carries them all, and a
// response that closes the connection makes the next send dial again.
func TestConnSender(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/close" {
			w.Header().Set("Connection", "close")
		}
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(r.Method + " " + r.URL.Path + " " + r.Header.Get("Content-Type") + " " + string(body)))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	send := connSender(srv.Listener.Addr().String())
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/allocate", `{"n":2}`},
		{http.MethodGet, "/metrics", ""},
		{http.MethodPost, "/close", "x"},
		{http.MethodPost, "/v1/release", `{"id":1}`},
	} {
		code, out, err := send(c.method, c.path, []byte(c.body))
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		want := c.method + " " + c.path + " application/json " + c.body
		if code != http.StatusConflict || string(out) != want {
			t.Errorf("%s %s: got %d %q, want %d %q", c.method, c.path, code, out, http.StatusConflict, want)
		}
	}
	if n := conns.Load(); n != 2 {
		t.Errorf("%d connections, want 2: one until the close, one after", n)
	}
}
