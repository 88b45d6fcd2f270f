package obsv

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"contiguitas/internal/telemetry"
)

// TestServerConnectionBounds: a client that sends half a request header
// is disconnected within readHeaderTimeout, while an /events stream
// opened before it keeps streaming past that bound (no write timeout).
func TestServerConnectionBounds(t *testing.T) {
	bus := NewEventBus()
	srv, err := Start(Options{Addr: "127.0.0.1:0", Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: obsv\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 3*time.Second))
	n, err := conn.Read(make([]byte, 512))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("half-header connection still open after %v", time.Since(start))
	}
	if n > 0 || err == nil {
		t.Fatalf("half-header request was answered (n=%d, err=%v)", n, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("half-header connection closed after only %v", waited)
	}

	// The stream has now been open longer than the header bound: a
	// record published now must still arrive.
	go func() {
		for i := 0; i < 400 && bus.Published() == 0; i++ {
			bus.Publish(telemetry.Record{Tick: 9, ID: telemetry.EvShardCrash})
			time.Sleep(5 * time.Millisecond)
		}
	}()
	stop := time.AfterFunc(5*time.Second, func() { resp.Body.Close() })
	defer stop.Stop()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			return
		}
	}
	t.Fatalf("/events stream ended before delivering a record: %v", sc.Err())
}
