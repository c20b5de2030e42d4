package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/wafer"
)

// Endpoint names used for metrics and routing.
const (
	epWaferClassify  = "/v1/wafer/classify"
	epOutlierScore   = "/v1/outlier/score"
	epAdaptiveDecide = "/v1/adaptive/decide"
	epModels         = "/v1/models"
	epArtifacts      = "/v1/artifacts"
	epArtifact       = "/v1/artifacts/{hash}"
	epHealthz        = "/healthz"
	epReadyz         = "/readyz"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	Registry *Registry

	// Micro-batching: up to MaxBatch requests per inference call, flushed
	// after FlushWindow at the latest; QueueCap bounds the submission
	// queue (excess requests are shed with 429).
	MaxBatch    int           // default 32
	FlushWindow time.Duration // default 1ms
	QueueCap    int           // default 8*MaxBatch

	// Workers bounds the intra-batch inference parallelism (<= 0 selects
	// GOMAXPROCS, matching the rest of the repository).
	Workers int

	// MaxInFlight caps concurrently admitted requests across all
	// endpoints; excess is shed with 429. Default 1024.
	MaxInFlight int

	// RequestTimeout bounds one request's total time in the server,
	// enforced through the request context. Default 5s.
	RequestTimeout time.Duration

	// Logger receives one structured line per request. nil disables
	// request logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = NewRegistry()
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.FlushWindow <= 0 {
		c.FlushWindow = time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8 * c.MaxBatch
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	return c
}

// waferOut is one batched classification result.
type waferOut struct {
	class   int
	version int
	err     error
}

// scoreOut is one batched scoring result; thresholds are captured at batch
// execution so a concurrent hot swap cannot mix scores of one model with
// thresholds of another.
type scoreOut struct {
	score   float64
	reject  float64
	retest  float64
	method  string
	version int
	err     error
}

// Server is the online inference service: registry-backed handlers behind
// micro-batching, metrics, logging, load shedding, and timeouts.
type Server struct {
	cfg     Config
	reg     *Registry
	metrics *Metrics
	mux     *http.ServeMux
	waferB  *Batcher[*wafer.Map, waferOut]
	scoreB  *Batcher[[]float64, scoreOut]
	closed  atomic.Bool
}

// errNoModel is returned per-item when the slot has no installed model.
var errNoModel = errors.New("no model installed")

// errModelPanic is returned per-item when model inference panicked; the
// request fails with 500 but the server (and the batch worker) keep going.
var errModelPanic = errors.New("model inference panicked")

// New builds a Server around a registry. Call Close when done to drain the
// batchers and release the metrics registration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		reg: cfg.Registry,
		metrics: NewMetrics([]string{
			epWaferClassify, epOutlierScore, epAdaptiveDecide,
			epModels, epArtifacts, epArtifact, epHealthz, epReadyz,
		}),
	}
	s.waferB = NewBatcher(cfg.MaxBatch, cfg.QueueCap, cfg.FlushWindow, s.waferBatch)
	s.scoreB = NewBatcher(cfg.MaxBatch, cfg.QueueCap, cfg.FlushWindow, s.scoreBatch)
	// A panic escaping a whole batch (e.g. a broken model blowing up before
	// per-item fan-out) fails that batch's requests with 500 instead of
	// killing the batch worker — and with it the process.
	s.waferB.PanicHandler = func(rec any) waferOut {
		s.recordPanic("wafer batch", rec)
		return waferOut{err: errModelPanic}
	}
	s.scoreB.PanicHandler = func(rec any) scoreOut {
		s.recordPanic("score batch", rec)
		return scoreOut{err: errModelPanic}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST "+epWaferClassify, s.instrument(epWaferClassify, s.handleWaferClassify))
	mux.HandleFunc("POST "+epOutlierScore, s.instrument(epOutlierScore, s.handleOutlierScore))
	mux.HandleFunc("POST "+epAdaptiveDecide, s.instrument(epAdaptiveDecide, s.handleAdaptiveDecide))
	mux.HandleFunc("GET "+epModels, s.instrument(epModels, s.handleModels))
	mux.HandleFunc("GET "+epArtifacts, s.instrument(epArtifacts, s.handleArtifacts))
	mux.HandleFunc("GET "+epArtifact, s.instrument(epArtifact, s.handleArtifact))
	mux.HandleFunc("GET "+epHealthz, s.instrument(epHealthz, s.handleHealthz))
	mux.HandleFunc("GET "+epReadyz, s.instrument(epReadyz, s.handleReadyz))
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the root handler (mount it on an http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (tests and the daemon's shutdown
// report read them).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close drains both batchers (every admitted request still gets its
// answer) and unregisters the metrics. Call it after http.Server.Shutdown
// has stopped admitting new requests.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.waferB.Close()
	s.scoreB.Close()
	s.metrics.Unregister()
}

// ---------------------------------------------------------------------------
// Middleware

// statusWriter records the response code for metrics/logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument wraps a handler with the full serving middleware: in-flight
// admission control (shed with 429 beyond MaxInFlight), per-request
// timeout via context, latency/error metrics, and structured logging.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}

		if n := s.metrics.inflight.Add(1); n > int64(s.cfg.MaxInFlight) {
			s.metrics.inflight.Add(-1)
			writeError(sw, http.StatusTooManyRequests, "server overloaded: in-flight limit reached")
			s.finish(name, r, sw, start)
			return
		}
		defer s.metrics.inflight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		s.serveRecovered(h, sw, r.WithContext(ctx))
		s.finish(name, r, sw, start)
	}
}

// serveRecovered runs one handler with panic isolation: a panicking handler
// answers 500 (unless it already committed a response) and the panic is
// counted and logged with its stack instead of tearing down the server's
// connection goroutine.
func (s *Server) serveRecovered(h http.HandlerFunc, sw *statusWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.recordPanic(r.URL.Path, rec)
			if sw.status == 0 {
				writeError(sw, http.StatusInternalServerError, "internal server error")
			}
		}
	}()
	h(sw, r)
}

// recordPanic bumps the panics counter and logs the stack trace of a
// recovered panic.
func (s *Server) recordPanic(where string, rec any) {
	s.metrics.RecordPanic()
	if s.cfg.Logger != nil {
		s.cfg.Logger.Error("recovered panic",
			slog.String("where", where),
			slog.Any("panic", rec),
			slog.String("stack", string(debug.Stack())))
	}
}

func (s *Server) finish(name string, r *http.Request, sw *statusWriter, start time.Time) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	d := time.Since(start)
	s.metrics.Observe(name, sw.status, d)
	if s.cfg.Logger != nil {
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("dur", d),
			slog.Int("bytes", sw.bytes),
			slog.String("remote", r.RemoteAddr),
		)
	}
}

// ---------------------------------------------------------------------------
// Wire types

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WaferClassifyRequest carries one wafer map as a row-major grid of die
// states (0 = off-die, 1 = pass, 2 = fail). Rows must be square.
type WaferClassifyRequest struct {
	Cells [][]uint8 `json:"cells"`
}

// WaferClassifyResponse is the classification verdict.
type WaferClassifyResponse struct {
	ClassID      int    `json:"class_id"`
	Class        string `json:"class"`
	ModelVersion int    `json:"model_version"`
}

// OutlierScoreRequest carries one device's parametric measurement vector.
type OutlierScoreRequest struct {
	X []float64 `json:"x"`
}

// OutlierScoreResponse reports the outlier score against the calibrated
// operating point.
type OutlierScoreResponse struct {
	Score           float64 `json:"score"`
	Reject          bool    `json:"reject"`
	RejectThreshold float64 `json:"reject_threshold"`
	RetestThreshold float64 `json:"retest_threshold"`
	Method          string  `json:"method"`
	ModelVersion    int     `json:"model_version"`
}

// Adaptive decisions returned by /v1/adaptive/decide.
const (
	DecisionContinue = "continue" // healthy: proceed with the normal flow
	DecisionRetest   = "retest"   // marginal band: re-measure the die
	DecisionStop     = "stop"     // confident outlier: stop testing, bin out
)

// AdaptiveDecideResponse is the per-die test-flow decision.
type AdaptiveDecideResponse struct {
	Decision        string  `json:"decision"`
	Score           float64 `json:"score"`
	RejectThreshold float64 `json:"reject_threshold"`
	RetestThreshold float64 `json:"retest_threshold"`
	Method          string  `json:"method"`
	ModelVersion    int     `json:"model_version"`
}

// ModelsResponse lists the installed model versions.
type ModelsResponse struct {
	Models []ModelMeta `json:"models"`
}

// maxBodyBytes bounds request bodies (a 300×300 wafer grid fits easily).
const maxBodyBytes = 4 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	// Reject trailing garbage.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		writeError(w, http.StatusBadRequest, "invalid request body: trailing data")
		return false
	}
	return true
}

// batchErr maps batcher submission errors onto HTTP statuses.
func batchErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "server overloaded: inference queue full")
	case errors.Is(err, ErrBatcherClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request timed out")
	case errors.Is(err, context.Canceled):
		// Client went away; status is moot but keep the accounting honest.
		writeError(w, 499, "client closed request")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// ---------------------------------------------------------------------------
// Batched inference

// waferBatch classifies one coalesced batch of wafer maps against the
// model that is live at execution time, fanning out over the shared worker
// pool. Per-item validation errors surface per item, never failing the
// whole batch.
func (s *Server) waferBatch(maps []*wafer.Map) []waferOut {
	out := make([]waferOut, len(maps))
	model := s.reg.Wafer()
	if model == nil {
		for i := range out {
			out[i].err = errNoModel
		}
		return out
	}
	size := model.Cls.GridSize()
	_ = parallel.For(s.cfg.Workers, len(maps), func(i int) error {
		// Per-item isolation: one map that crashes the model fails only its
		// own request; its batchmates still get real answers.
		defer func() {
			if rec := recover(); rec != nil {
				s.recordPanic("wafer predict", rec)
				out[i] = waferOut{err: errModelPanic}
			}
		}()
		if maps[i].Size != size {
			out[i] = waferOut{err: fmt.Errorf("grid is %dx%d, model expects %dx%d",
				maps[i].Size, maps[i].Size, size, size)}
			return nil
		}
		out[i] = waferOut{class: model.Cls.Predict(maps[i]), version: model.Meta.Version}
		return nil
	})
	return out
}

// scoreBatch scores one coalesced batch of measurement vectors. Model and
// thresholds are captured once per batch so every item in it is judged by
// one consistent operating point.
func (s *Server) scoreBatch(xs [][]float64) []scoreOut {
	out := make([]scoreOut, len(xs))
	model := s.reg.Outlier()
	if model == nil {
		for i := range out {
			out[i].err = errNoModel
		}
		return out
	}
	_ = parallel.For(s.cfg.Workers, len(xs), func(i int) error {
		defer func() {
			if rec := recover(); rec != nil {
				s.recordPanic("outlier score", rec)
				out[i] = scoreOut{err: errModelPanic}
			}
		}()
		if len(xs[i]) != model.Tests {
			out[i] = scoreOut{err: fmt.Errorf("x has %d tests, model expects %d",
				len(xs[i]), model.Tests)}
			return nil
		}
		out[i] = scoreOut{
			score:   model.Scorer.Score(xs[i]),
			reject:  model.RejectThreshold,
			retest:  model.RetestThreshold,
			method:  model.Method,
			version: model.Meta.Version,
		}
		return nil
	})
	return out
}

// ---------------------------------------------------------------------------
// Handlers

func (s *Server) handleWaferClassify(w http.ResponseWriter, r *http.Request) {
	var req WaferClassifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	m, err := mapFromCells(req.Cells)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := s.waferB.Do(r.Context(), m)
	if err != nil {
		batchErr(w, err)
		return
	}
	if res.err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(res.err, errNoModel):
			status = http.StatusServiceUnavailable
		case errors.Is(res.err, errModelPanic):
			status = http.StatusInternalServerError
		}
		writeError(w, status, res.err.Error())
		return
	}
	writeJSON(w, http.StatusOK, WaferClassifyResponse{
		ClassID:      res.class,
		Class:        wafer.Class(res.class).String(),
		ModelVersion: res.version,
	})
}

func (s *Server) handleOutlierScore(w http.ResponseWriter, r *http.Request) {
	res, ok := s.scoreOne(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, OutlierScoreResponse{
		Score:           res.score,
		Reject:          res.score > res.reject,
		RejectThreshold: res.reject,
		RetestThreshold: res.retest,
		Method:          res.method,
		ModelVersion:    res.version,
	})
}

func (s *Server) handleAdaptiveDecide(w http.ResponseWriter, r *http.Request) {
	res, ok := s.scoreOne(w, r)
	if !ok {
		return
	}
	decision := DecisionContinue
	switch {
	case res.score > res.reject:
		decision = DecisionStop
	case res.score > res.retest:
		decision = DecisionRetest
	}
	writeJSON(w, http.StatusOK, AdaptiveDecideResponse{
		Decision:        decision,
		Score:           res.score,
		RejectThreshold: res.reject,
		RetestThreshold: res.retest,
		Method:          res.method,
		ModelVersion:    res.version,
	})
}

// scoreOne is the shared request path of the two scoring endpoints.
func (s *Server) scoreOne(w http.ResponseWriter, r *http.Request) (scoreOut, bool) {
	var req OutlierScoreRequest
	if !decodeBody(w, r, &req) {
		return scoreOut{}, false
	}
	if len(req.X) == 0 {
		writeError(w, http.StatusBadRequest, "x must be a non-empty measurement vector")
		return scoreOut{}, false
	}
	res, err := s.scoreB.Do(r.Context(), req.X)
	if err != nil {
		batchErr(w, err)
		return scoreOut{}, false
	}
	if res.err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(res.err, errNoModel):
			status = http.StatusServiceUnavailable
		case errors.Is(res.err, errModelPanic):
			status = http.StatusInternalServerError
		}
		writeError(w, status, res.err.Error())
		return scoreOut{}, false
	}
	return res, true
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ModelsResponse{Models: s.reg.Models()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	if !s.reg.Ready() {
		status = http.StatusServiceUnavailable
	}
	ready := map[string]bool{
		KindWaferHDC:      s.reg.Wafer() != nil,
		KindOutlierScreen: s.reg.Outlier() != nil,
	}
	writeJSON(w, status, ready)
}

// mapFromCells validates a request grid and converts it to a wafer.Map.
func mapFromCells(cells [][]uint8) (*wafer.Map, error) {
	n := len(cells)
	if n == 0 {
		return nil, fmt.Errorf("cells must be a non-empty square grid")
	}
	m := &wafer.Map{Size: n, Cells: make([]uint8, n*n)}
	for r, row := range cells {
		if len(row) != n {
			return nil, fmt.Errorf("row %d has %d cells, want %d (square grid)", r, len(row), n)
		}
		for c, v := range row {
			if v > wafer.Fail {
				return nil, fmt.Errorf("cell (%d,%d) = %d, want 0 (off-die), 1 (pass) or 2 (fail)", r, c, v)
			}
			m.Cells[r*n+c] = v
		}
	}
	return m, nil
}
