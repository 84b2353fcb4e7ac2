package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/service"
)

// TestServerBoundsStalledConnections drives the daemon's listener set-up: a
// client that sends half a request line and goes quiet is disconnected once
// the header timeout passes, while a wait:true job that runs for longer than
// that timeout still gets its answer — only the headers are on the clock.
func TestServerBoundsStalledConnections(t *testing.T) {
	engine := service.NewEngine(service.Config{Pool: 1})
	defer engine.Close()
	srv := newHTTPServer("", service.NewServer(engine))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("server bounds: header %v, idle %v, %d header bytes", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("a wait:true response and an upload body must not be on a deadline: write %v, read %v", srv.WriteTimeout, srv.ReadTimeout)
	}
	// The same server at test speed.
	const timeout = 50 * time.Millisecond
	srv.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("GET /v1/algo")); err != nil {
		t.Fatal(err)
	}
	dropped := make(chan error, 1)
	go func() {
		// The server answers a header timeout by closing the connection.
		stalled.SetReadDeadline(time.Now().Add(30 * time.Second))
		_, err := io.Copy(io.Discard, stalled)
		dropped <- err
	}()

	body, err := json.Marshal(map[string]any{
		"instance": service.InstanceSpec{Type: "density", N: 6000, C: 0.5, Seed: 3},
		"alg":      "mis", "seed": 3, "mu": 0.05, "wait": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("wait:true job: %v", err)
	}
	defer resp.Body.Close()
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK || view.Status != service.StatusDone {
		t.Fatalf("wait:true job: status %d, job %q, error %q", resp.StatusCode, view.Status, view.Error)
	}
	if elapsed <= timeout {
		t.Fatalf("the job took %v, not longer than the %v header timeout: the test needs a larger instance", elapsed, timeout)
	}

	select {
	case err := <-dropped:
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("stalled connection still open after 30s: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stalled connection still open")
	}
}
