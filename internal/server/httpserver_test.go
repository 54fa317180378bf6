package server

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// TestHTTPServerCutsSlowHeaders: a slowloris client that trickles header
// bytes and never finishes its request loses the connection once the
// header read limit passes, instead of holding it open indefinitely.
func TestHTTPServerCutsSlowHeaders(t *testing.T) {
	s, err := New(Config{Tenants: map[string]TenantConfig{"a": fixedTenant(4, 0.5)}})
	if err != nil {
		t.Fatal(err)
	}
	hs := s.HTTPServer("")
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout || hs.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("limits = (%v, %v, %d), want (%v, %v, %d)", hs.ReadHeaderTimeout, hs.IdleTimeout, hs.MaxHeaderBytes,
			readHeaderTimeout, idleTimeout, maxHeaderBytes)
	}
	// The production limit is seconds long; shorten it to keep the test
	// fast. What is under test is that the connection gets closed.
	const limit = 300 * time.Millisecond
	hs.ReadHeaderTimeout = limit
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close()
		<-served
		s.Close()
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: stratrec\r\n"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(limit / 6)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte("X")); err != nil {
					return // the server hung up
				}
			}
		}
	}()
	if err := conn.SetReadDeadline(time.Now().Add(10 * limit)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after the request began, with a %v header limit", elapsed, limit)
	}
	if elapsed < limit {
		t.Fatalf("connection closed after %v, before the %v header limit", elapsed, limit)
	}
}
