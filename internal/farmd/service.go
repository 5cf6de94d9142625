package farmd

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/obs"
)

// defaultRowWriteTimeout bounds each NDJSON row write when Config does not
// set one: a client that stalls its stream longer than this fails its write
// rather than wedging whatever produces the rows.
const defaultRowWriteTimeout = 30 * time.Second

// readHeaderTimeout bounds how long a peer may take to send its request
// headers, so a connection that never finishes them cannot be held open
// against either daemon.
const readHeaderTimeout = 10 * time.Second

// Config configures a fleet daemon's serving core, and through it the
// dfarmd campaign server.
type Config struct {
	// Cache is the shard-result store shared by every campaign the
	// server runs (nil = no caching).
	Cache campaign.ShardCache

	// Workers is each campaign's worker pool size (0 = GOMAXPROCS).
	Workers int

	// MaxConcurrent bounds how many campaigns execute at once (0 = 2);
	// excess submissions queue until a slot frees or the client leaves.
	MaxConcurrent int

	// JobTimeout is the default per-job wall-clock budget applied when a
	// request does not set one (0 = unbounded).
	JobTimeout time.Duration

	// RowWriteTimeout bounds each NDJSON row write; a client that stalls
	// its stream longer than this has its campaign cancelled. 0 means 30s;
	// negative disables the bound.
	RowWriteTimeout time.Duration

	// AuthToken, when non-empty, is the shared fleet secret: every
	// mutating endpoint (campaign submission, shard leases) requires
	// "Authorization: Bearer <AuthToken>". Read-only probes (/healthz,
	// /v1/benchmarks, /v1/stats) stay open for load balancers and
	// monitoring.
	AuthToken string

	// Metrics is the registry GET /metrics serves and /v1/stats is read
	// from; the daemon registers its instruments on it (nil = a fresh
	// private registry, so both endpoints always work). Observability
	// only: metrics never feed results.
	Metrics *obs.Registry

	// Trace journals campaign/lease lifecycle events as NDJSON (nil =
	// no tracing).
	Trace *obs.Tracer

	// Now is the server's clock seam for lease-duration observations;
	// nil means time.Now. Timing read through it only ever feeds
	// metrics, never results.
	Now func() time.Time
}

// rowTimeout resolves the configured row-write deadline.
func (c *Config) rowTimeout() time.Duration {
	switch {
	case c.RowWriteTimeout == 0:
		return defaultRowWriteTimeout
	case c.RowWriteTimeout < 0:
		return 0
	default:
		return c.RowWriteTimeout
	}
}

// Service is the serving core dfarmd and dcoord share: the mux with its
// open and bearer-gated routes, /healthz, /metrics and /v1/stats, the
// MaxConcurrent execution slots, matrix admission, the engine options a
// request runs under and the deadline-bounded NDJSON row stream. A daemon
// is a Service plus whatever executes its shards.
type Service struct {
	cfg  Config
	mux  *http.ServeMux
	sem  chan struct{}
	base campaign.Options // per-daemon engine options every request starts from
}

// NewService builds a serving core over cfg. stats produces the daemon's
// /v1/stats document; it must read its numbers from cfg.Metrics' instruments
// so that /v1/stats and /metrics are two views of one ledger.
func NewService(cfg Config, stats func() any) *Service {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now //dvet:walltime-ok the one approved default for the server's clock seam
	}
	s := &Service{
		cfg: cfg,
		mux: http.NewServeMux(),
		sem: make(chan struct{}, cfg.MaxConcurrent),
		base: campaign.Options{
			Workers:    cfg.Workers,
			JobTimeout: cfg.JobTimeout,
			Cache:      cfg.Cache,
			Metrics:    campaign.NewMetrics(cfg.Metrics),
			Trace:      cfg.Trace,
			Now:        cfg.Now,
		},
	}
	s.Handle("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, stats()) })
	s.mux.Handle("GET /metrics", cfg.Metrics.Handler())
	s.Handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	return s
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the registry the service serves and reads stats from.
func (s *Service) Metrics() *obs.Registry { return s.cfg.Metrics }

// Handle registers an open route (read-only probes).
func (s *Service) Handle(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// HandleAuth registers a route gated behind the shared fleet secret; with
// no token configured the gate is a no-op.
func (s *Service) HandleAuth(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if !CheckBearer(r, s.cfg.AuthToken) {
			HTTPError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		h(w, r)
	})
}

// CheckBearer reports whether the request carries "Authorization: Bearer
// <token>". An empty token disables the check. The comparison is constant
// time, so a fleet secret cannot be recovered byte-by-byte through timing.
func CheckBearer(r *http.Request, token string) bool {
	if token == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// WriteJSON writes v as a JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // terminal write
}

// HTTPError writes a {"error": ...} JSON body with the given status.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// DecodeBody decodes a JSON request body of at most limit bytes into v, so
// one oversized submission cannot exhaust the daemon's memory.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
}

// DecodeMatrix reads a campaign submission's body under MaxMatrixBytes and
// ExpandMatrix expands every phase of it without running anything; the
// expansion is what RunMatrixPhases then executes. A malformed body or a
// bad matrix is answered 400 before any stream byte and ok is false.
func DecodeMatrix(w http.ResponseWriter, r *http.Request) (req *MatrixRequest, ok bool) {
	req = &MatrixRequest{}
	if err := DecodeBody(w, r, MaxMatrixBytes, req); err != nil {
		HTTPError(w, http.StatusBadRequest, "bad matrix request: %v", err)
		return nil, false
	}
	return req, true
}

// ExpandMatrix is the second half of admission; see DecodeMatrix.
func ExpandMatrix(w http.ResponseWriter, req *MatrixRequest) (exp *Expansion, ok bool) {
	exp, err := req.Expand()
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return exp, true
}

// Acquire queues for one of the MaxConcurrent execution slots. ok is false
// when ctx ended first; otherwise release frees the slot.
func (s *Service) Acquire(ctx context.Context) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	case <-ctx.Done():
		return nil, false
	}
}

// Options returns the engine options req runs under on this daemon: the
// daemon's pool, cache, instruments and defaults with the request's own
// settings applied. The caller adds its row callback and executor.
func (s *Service) Options(req *MatrixRequest) campaign.Options { return req.Options(s.base) }

// TerminalRow builds a stream's last row from what RunMatrix returned: the
// summary of a report, or the error that prevented one.
func TerminalRow(rep *campaign.Report, err error) Row {
	if rep == nil {
		return Row{Error: err.Error()}
	}
	return Row{Summary: &Summary{
		Passed:       rep.Passed,
		Jobs:         len(rep.Jobs),
		TotalChecked: rep.TotalChecked,
		StoppedEarly: rep.StoppedEarly,
		Cache:        rep.Cache,
		Timing:       rep.Timing,
	}}
}

// OpenRows commits w to an NDJSON row stream and returns its writer. Each
// Write must carry exactly one newline-terminated row: it goes out under
// the configured write deadline and is flushed at once.
func (s *Service) OpenRows(w http.ResponseWriter) io.Writer {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &rowStream{w: w, rc: http.NewResponseController(w), flusher: flusher, timeout: s.cfg.rowTimeout()}
}

type rowStream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	flusher http.Flusher
	timeout time.Duration
}

// Write sends one row. A bounded write deadline per row: a client that
// stops reading its stream fails the write instead of blocking the emitter
// indefinitely. Best effort: an unsupported controller falls back to
// unbounded writes.
func (s *rowStream) Write(row []byte) (int, error) {
	if s.timeout > 0 {
		//dvet:walltime-ok I/O write deadline for a stalled client, never report content
		s.rc.SetWriteDeadline(time.Now().Add(s.timeout)) //nolint:errcheck // best effort
	}
	n, err := s.w.Write(row)
	if err == nil && s.flusher != nil {
		s.flusher.Flush()
	}
	return n, err
}

// ListenAndServe runs h on addr until ctx is cancelled — the caller wires
// ctx to SIGINT/SIGTERM — then shuts down gracefully: the listener closes
// immediately (no new campaigns), in-flight streams get drain to finish
// (then the server hard-closes), and flush, when non-nil, runs before
// return so buffered state (the disk cache tier) survives the restart.
// Both dfarmd and dcoord serve through this helper so the fleet shares one
// shutdown discipline.
func ListenAndServe(ctx context.Context, addr string, h http.Handler, drain time.Duration, flush func() error) error {
	if drain <= 0 {
		drain = 5 * time.Second
	}
	srv := newHTTPServer(addr, h)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	var err error
	select {
	case err = <-errCh:
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		if serr := srv.Shutdown(shutdownCtx); serr != nil {
			srv.Close()
		}
		cancel()
		if err = <-errCh; errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
	}
	if flush != nil {
		if ferr := flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// newHTTPServer is the one place a fleet daemon's http.Server is built.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}
