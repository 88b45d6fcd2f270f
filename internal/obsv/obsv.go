// Package obsv is the live observability plane: an embeddable HTTP
// server any CLI can mount behind a -serve flag to expose a running
// simulation or campaign without changing how it computes.
//
// Endpoints:
//
//	/healthz                 liveness JSON
//	/metrics                 Prometheus text exposition of the
//	                         telemetry registry (via Publisher)
//	/campaigns               JSON board of registered campaigns
//	/campaigns/{id}/shards   per-shard progress for one campaign
//	/events                  Server-Sent Events tap of the tracepoint
//	                         ring (drop-don't-block)
//	/debug/pprof/            the stdlib profiler
//
// Everything is stdlib net/http. The design constraint throughout is
// that the observed process must be unobservable to itself: readers
// never touch writer-owned state (Publisher snapshots), never apply
// backpressure (EventBus drops), and cost one predictable branch per
// writer boundary when nobody is watching.
package obsv

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"contiguitas/internal/kernel"
	"contiguitas/internal/telemetry"
)

// Close-time quiesce bounds: a server that has served at least one
// request waits for the connection to go idle (a live prober — CI's
// obsvcheck — gets to read the campaign's terminal state before the
// process exits) but never holds process exit hostage.
const (
	quiesceIdle = 500 * time.Millisecond
	quiesceMax  = 5 * time.Second
)

// Connection bounds: a client that stalls inside its request header,
// or idles on a keep-alive connection, is disconnected instead of
// pinning a goroutine and a socket. There is deliberately no write
// timeout — /events and /debug/pprof/profile stream for as long as the
// client asks.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// metricsWait bounds how long /metrics waits for the writer to pump a
// fresh snapshot before serving the latest stale one.
const metricsWait = 150 * time.Millisecond

// Options configures a Server. Any nil component simply disables its
// endpoints' content (they still answer, with empty or placeholder
// bodies, so probes never need to special-case partial deployments).
type Options struct {
	// Addr is the listen address (":0" for an ephemeral port).
	Addr string
	// Board feeds /campaigns.
	Board *Board
	// Bus feeds /events.
	Bus *EventBus
	// Extend, when non-nil, registers extra routes on the server's mux
	// before it starts serving. This is how a daemon (cmd/contigd) mounts
	// its own API next to the observability endpoints without obsv
	// learning about it.
	Extend func(*http.ServeMux)
	// Health, when non-nil, supplies the /healthz status string — "ok"
	// or "degraded" — so a daemon can surface read-only degraded mode to
	// probes without obsv knowing what degraded means. Nil reports "ok".
	Health func() string
}

// Server is a running observability endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	bus  *EventBus
	opts Options
	// pub is swappable so a CLI can mount the server before the
	// simulation (and its registry) exists.
	pub atomic.Pointer[telemetry.Publisher]

	sawActivity  atomic.Bool
	lastActivity atomic.Int64 // unix nanos of the most recent request
}

// Start listens on opts.Addr and serves in a background goroutine.
func Start(opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, bus: opts.Bus, opts: opts}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/campaigns", s.serveCampaigns)
	mux.HandleFunc("/campaigns/", s.serveCampaignPath)
	mux.HandleFunc("/events", s.serveEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if opts.Extend != nil {
		opts.Extend(mux)
	}

	s.srv = &http.Server{
		Handler:           s.track(mux),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// track stamps every request for the Close-time quiesce decision.
func (s *Server) track(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.sawActivity.Store(true)
		s.lastActivity.Store(time.Now().UnixNano())
		next.ServeHTTP(w, r)
		// Long-lived streams (SSE, pprof profiles) refresh on exit too,
		// so a stream that just ended counts as recent activity.
		s.lastActivity.Store(time.Now().UnixNano())
	})
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	addr := s.Addr()
	// net.Listen(":0") binds the wildcard address; rewrite it to a
	// dialable loopback host.
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if host == "" || host == "::" || host == "0.0.0.0" {
			addr = net.JoinHostPort("127.0.0.1", port)
		}
	}
	return "http://" + addr
}

// Close shuts the server down. If any request was ever served, it first
// waits for the HTTP side to go idle (bounded by quiesceMax) so a live
// prober can observe the terminal campaign state before the process
// exits; a server nobody ever contacted closes immediately.
func (s *Server) Close() {
	if s == nil {
		return
	}
	if s.sawActivity.Load() {
		deadline := time.Now().Add(quiesceMax)
		for time.Now().Before(deadline) {
			idle := time.Since(time.Unix(0, s.lastActivity.Load()))
			if idle >= quiesceIdle {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// Wake blocked SSE handlers so Shutdown is not held open by streams.
	s.bus.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
}

func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.opts.Health != nil {
		status = s.opts.Health()
	}
	writeJSON(w, struct {
		Status string `json:"status"`
	}{status})
}

// SetPublisher attaches (or replaces) the /metrics source. Safe at any
// time; scrapes before the first attachment see the no-snapshot body.
func (s *Server) SetPublisher(pub *telemetry.Publisher) {
	if s != nil && pub != nil {
		s.pub.Store(pub)
	}
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	// Fresh asks the writer for a snapshot at its next boundary and
	// falls back to the latest stale one — a scrape can be slightly
	// old but can never block or race the simulation.
	snap := s.pub.Load().Fresh(metricsWait)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePromText(w, snap)
}

func (s *Server) serveCampaigns(w http.ResponseWriter, r *http.Request) {
	if s.opts.Board == nil {
		writeJSON(w, []CampaignStatus{})
		return
	}
	s.opts.Board.serveCampaigns(w, r)
}

func (s *Server) serveCampaignPath(w http.ResponseWriter, r *http.Request) {
	if s.opts.Board == nil {
		http.NotFound(w, r)
		return
	}
	if strings.HasSuffix(r.URL.Path, "/shards") {
		s.opts.Board.serveShards(w, r)
		return
	}
	http.NotFound(w, r)
}

func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request) {
	if s.bus == nil {
		http.Error(w, "no event bus mounted", http.StatusNotFound)
		return
	}
	s.bus.serveEvents(w, r)
}

// Handle bundles the plane a CLI mounts behind its -serve flag. All
// methods are nil-safe, so call sites stay unconditional when the flag
// is off.
type Handle struct {
	Server *Server
	Bus    *EventBus
	Board  *Board
}

// MountCLI starts the plane for a -serve flag value and prints the
// standard announcement line scripts parse for the bound (possibly
// ephemeral) port. An empty addr returns a nil handle.
func MountCLI(addr string) (*Handle, error) {
	if addr == "" {
		return nil, nil
	}
	h := &Handle{Bus: NewEventBus(), Board: NewBoard()}
	srv, err := Start(Options{Addr: addr, Board: h.Board, Bus: h.Bus})
	if err != nil {
		return nil, err
	}
	h.Server = srv
	fmt.Printf("obsv: serving on %s\n", srv.URL())
	return h, nil
}

// Attach points /metrics at reg via a fresh publisher and tees ring
// into /events (either may be nil). Returns the publisher the
// simulation's writer goroutine must pump (nil handle → nil publisher,
// whose methods are all no-ops).
func (h *Handle) Attach(reg *telemetry.Registry, ring *telemetry.Ring) *telemetry.Publisher {
	if h == nil {
		return nil
	}
	var pub *telemetry.Publisher
	if reg != nil {
		pub = telemetry.NewPublisher(reg)
		h.Server.SetPublisher(pub)
	}
	if ring != nil {
		ring.SetSink(h.Bus.Sink())
	}
	return pub
}

// Instrumented is a kernel wired for telemetry by Handle.Instrument.
type Instrumented struct {
	Ring *telemetry.Ring
	// Sampler is nil when the run keeps no per-tick series.
	Sampler *telemetry.Sampler
	// Pub is the publisher the driving goroutine pumps at its tick
	// boundaries (nil without -serve; its methods are no-ops then).
	Pub *telemetry.Publisher
}

// Instrument is the one instrumentation step of every traced run: it
// gives k a tracepoint ring of ringCap records and, when samples > 0, a
// per-tick sampler retaining that many rows, mounts both on the plane
// (see Attach), and publishes tick. On a nil handle the ring and
// sampler still attach; only the plane is absent. The capacities shape
// the exported artifacts, so callers pass them explicitly.
func (h *Handle) Instrument(k *kernel.Kernel, ringCap, samples int, tick uint64) *Instrumented {
	in := &Instrumented{Ring: telemetry.NewRing(ringCap)}
	k.SetTracer(in.Ring)
	if samples > 0 {
		in.Sampler = k.AttachSampler(samples)
	}
	in.Pub = h.Attach(k.Metrics(), in.Ring)
	in.Pub.Publish(tick)
	return in
}

// Export writes the run's artifacts to whichever paths are non-empty —
// Chrome trace, per-tick metrics JSONL, text timeline — with
// telemetry.ExportAll semantics: every artifact is attempted even when
// a sibling fails, and the failures come back joined.
func (in *Instrumented) Export(traceOut, metricsOut, timelineOut string) error {
	return telemetry.ExportAll(
		telemetry.ChromeTraceArtifact(traceOut, in.Ring, in.Sampler),
		telemetry.MetricsJSONLArtifact(metricsOut, in.Sampler),
		telemetry.TimelineArtifact(timelineOut, in.Ring),
	)
}

// Close quiesces and shuts the plane down.
func (h *Handle) Close() {
	if h != nil {
		h.Server.Close()
	}
}
