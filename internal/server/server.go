// Package server exposes the ODBIS services over HTTP — the paper's
// end-user access layer where "only the web browser is supported as
// access tool by the current ODBIS release" (§3.1), extended with the
// JSON API the Information Delivery Service anticipates ("it can be also
// presented as a web services for more flexibility").
//
// Authentication: POST /api/login returns a bearer token; every other
// /api route requires "Authorization: Bearer <token>".
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/odbis/odbis/internal/fault"
	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/security"
	"github.com/odbis/odbis/internal/services"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/tenant"
)

// Server is the HTTP façade.
type Server struct {
	platform *services.Platform
	mux      *http.ServeMux
	// requestTimeout bounds each authenticated API call (0 = unbounded).
	requestTimeout time.Duration
	// adm is the admission-control semaphore (nil = unlimited): a slot
	// must be acquired before any non-exempt request runs. It may be
	// shared with other front doors (the binary protocol listener).
	adm        *Admission
	retryAfter int
}

// Options configure the HTTP façade.
type Options struct {
	// RequestTimeout caps the wall-clock time of every authenticated API
	// call: the request context is cancelled at the deadline, the in-
	// flight work (SQL scan, cube build, ETL job) aborts at its next
	// checkpoint and rolls back, and the client gets 504 Gateway Timeout.
	// Zero means no server-imposed deadline (client disconnects still
	// cancel).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently running requests (load shedding):
	// beyond it, requests wait up to QueueWait for a slot and are then
	// rejected with 503 + Retry-After. Zero means unlimited. /healthz is
	// exempt — an overloaded platform must still answer probes.
	MaxInFlight int
	// QueueWait is how long an over-limit request may wait for a slot
	// before shedding (0 = shed immediately). Keep it below client
	// timeouts: queueing longer than callers wait serves no one.
	QueueWait time.Duration
	// RetryAfterSeconds is advertised on 503 responses (default 1).
	RetryAfterSeconds int
	// Admission, when non-nil, is a pre-built admission semaphore shared
	// with another front door; it overrides MaxInFlight/QueueWait. The
	// façade (odbis.Open) builds one and hands it to both the HTTP
	// server and the protocol listener so the in-flight bound covers
	// them jointly.
	Admission *Admission
}

// New builds a server over a platform.
func New(p *services.Platform) *Server {
	return NewWithOptions(p, Options{})
}

// NewWithOptions builds a server with explicit options.
func NewWithOptions(p *services.Platform, opts Options) *Server {
	s := &Server{platform: p, mux: http.NewServeMux(), requestTimeout: opts.RequestTimeout}
	s.adm = opts.Admission
	if s.adm == nil {
		s.adm = NewAdmission(opts.MaxInFlight, opts.QueueWait)
	}
	s.retryAfter = opts.RetryAfterSeconds
	if s.retryAfter <= 0 {
		s.retryAfter = 1
	}
	s.routes()
	return s
}

// queueWaitKey stashes the admission-queue wait on the request context
// so withSession can attribute it to the tenant once auth resolves one
// (admission runs before the tenant is known).
type queueWaitKey struct{}

// ServeHTTP implements http.Handler: admission control, then tracing,
// then panic recovery, then routing. Health probes and the Prometheus
// scrape bypass admission — an overloaded platform that fails its
// liveness checks gets restarted into a worse outage, and monitoring is
// most valuable exactly when the platform is saturated.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" || r.URL.Path == "/metrics" {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	admitted, wait := s.adm.Acquire(r.Context())
	if !admitted {
		mHTTPShed.Inc()
		mHTTP5xx.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server at capacity, retry later"})
		return
	}
	defer s.adm.Release()
	ctx := r.Context()
	if wait > 0 {
		mHTTPQueueWait.ObserveDuration(wait)
		ctx = context.WithValue(ctx, queueWaitKey{}, wait)
	}
	ctx, root := obs.StartTrace(ctx, r.Method+" "+r.URL.Path)
	gHTTPInFlight.Add(1)
	sr := &statusRecorder{ResponseWriter: w}
	s.serveRecovered(sr, r.WithContext(ctx))
	gHTTPInFlight.Add(-1)
	root.End()
	statusClassCounter(sr.Status()).Inc()
	mHTTPSeconds.ObserveDuration(time.Since(start))
}

// Admission exposes the server's admission semaphore so another front
// door can share it (nil when unlimited).
func (s *Server) Admission() *Admission { return s.adm }

// statusRecorder remembers whether a handler already wrote a header (so
// the recovery middleware knows if a structured 500 can still be sent)
// and which status it chose (for the per-class request counters).
type statusRecorder struct {
	http.ResponseWriter
	wrote  bool
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.status = code
	}
	sr.wrote = true
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	sr.wrote = true
	return sr.ResponseWriter.Write(p)
}

// Status returns the recorded status, defaulting to 200 for handlers
// that wrote a body (or nothing) without an explicit WriteHeader.
func (sr *statusRecorder) Status() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}

// serveRecovered routes the request with panic containment: a panicking
// handler produces a structured 500 (when the response is still
// unwritten) and the process stays up. In-flight transactions are safe —
// every write path runs under UpdateCtx, whose deferred rollback fires
// during the unwind before the recovery here runs. http.ErrAbortHandler
// is re-raised per net/http convention (it is the sanctioned way to
// abort a response, not a bug).
func (s *Server) serveRecovered(sr *statusRecorder, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		if !sr.wrote {
			writeJSON(sr, http.StatusInternalServerError,
				apiError{Error: fmt.Sprintf("internal error: %v", rec)})
		}
	}()
	s.mux.ServeHTTP(sr, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Readiness is distinct from liveness: /healthz answers "is the
	// process up" (restart me if not), /readyz answers "should traffic be
	// routed here" (drain me if not). A stuck WAL latch or a fully
	// tripped replica set degrades readiness while the process stays
	// healthy — restarting it would not help and may lose buffered state.
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /api/login", s.handleLogin)
	s.mux.HandleFunc("GET /api/whoami", s.withSession(s.handleWhoami))

	// Administration service.
	s.mux.HandleFunc("GET /api/admin/tenants", s.withSession(s.handleListTenants))
	s.mux.HandleFunc("POST /api/admin/tenants", s.withSession(s.handleCreateTenant))
	s.mux.HandleFunc("DELETE /api/admin/tenants/{id}", s.withSession(s.handleDropTenant))
	s.mux.HandleFunc("POST /api/admin/tenants/{id}/suspend", s.withSession(s.handleSuspendTenant))
	s.mux.HandleFunc("POST /api/admin/tenants/{id}/resume", s.withSession(s.handleResumeTenant))
	s.mux.HandleFunc("GET /api/admin/tenants/{id}/usage", s.withSession(s.handleTenantUsage))
	s.mux.HandleFunc("GET /api/admin/tenants/{id}/invoice", s.withSession(s.handleTenantInvoice))
	s.mux.HandleFunc("POST /api/admin/users", s.withSession(s.handleCreateUser))
	s.mux.HandleFunc("GET /api/admin/users", s.withSession(s.handleListUsers))
	s.mux.HandleFunc("GET /api/admin/audit", s.withSession(s.handleAudit))

	// Observability: Prometheus scrape (unauthenticated, like /healthz —
	// monitoring must work when auth is down), plus admin-only JSON
	// metrics, recent traces, and dead-letter inspection.
	s.mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	s.mux.HandleFunc("GET /api/admin/metrics", s.withSession(s.handleMetricsJSON))
	s.mux.HandleFunc("GET /api/admin/traces", s.withSession(s.handleTraces))
	s.mux.HandleFunc("GET /api/admin/deadletters", s.withSession(s.handleDeadLetters))
	s.mux.HandleFunc("GET /api/admin/replicas", s.withSession(s.handleReplicas))

	// Operational fault-injection control (admin-only): inspect, arm and
	// disarm the platform's named fault points at runtime.
	s.mux.HandleFunc("GET /api/admin/faults", s.withSession(s.handleListFaults))
	s.mux.HandleFunc("POST /api/admin/faults", s.withSession(s.handleArmFault))
	s.mux.HandleFunc("DELETE /api/admin/faults", s.withSession(s.handleResetFaults))
	s.mux.HandleFunc("DELETE /api/admin/faults/{name}", s.withSession(s.handleDisarmFault))

	// Meta-data service.
	s.mux.HandleFunc("GET /api/metadata/datasources", s.withSession(s.handleListDataSources))
	s.mux.HandleFunc("POST /api/metadata/datasources", s.withSession(s.handleCreateDataSource))
	s.mux.HandleFunc("DELETE /api/metadata/datasources/{name}", s.withSession(s.handleDeleteDataSource))
	s.mux.HandleFunc("GET /api/metadata/datasets", s.withSession(s.handleListDataSets))
	s.mux.HandleFunc("POST /api/metadata/datasets", s.withSession(s.handleCreateDataSet))
	s.mux.HandleFunc("DELETE /api/metadata/datasets/{name}", s.withSession(s.handleDeleteDataSet))
	s.mux.HandleFunc("POST /api/metadata/datasets/{name}/run", s.withSession(s.handleRunDataSet))
	s.mux.HandleFunc("GET /api/metadata/terms", s.withSession(s.handleListTerms))
	s.mux.HandleFunc("POST /api/metadata/terms", s.withSession(s.handleDefineTerm))
	s.mux.HandleFunc("POST /api/query", s.withSession(s.handleQuery))
	s.mux.HandleFunc("POST /api/metadata/align", s.withSession(s.handleSemanticAlign))

	// Integration service.
	s.mux.HandleFunc("POST /api/jobs/run", s.withSession(s.handleRunJob))
	s.mux.HandleFunc("POST /api/jobs/preview", s.withSession(s.handlePreviewJob))
	s.mux.HandleFunc("POST /api/jobs/schedule", s.withSession(s.handleScheduleJob))
	s.mux.HandleFunc("POST /api/jobs/{name}/trigger", s.withSession(s.handleTriggerJob))
	s.mux.HandleFunc("GET /api/jobs/{name}/history", s.withSession(s.handleJobHistory))

	// Analysis service.
	s.mux.HandleFunc("GET /api/cubes", s.withSession(s.handleListCubes))
	s.mux.HandleFunc("POST /api/cubes", s.withSession(s.handleDefineCube))
	s.mux.HandleFunc("DELETE /api/cubes/{name}", s.withSession(s.handleDeleteCube))
	s.mux.HandleFunc("POST /api/cubes/{name}/build", s.withSession(s.handleBuildCube))
	s.mux.HandleFunc("POST /api/cubes/{name}/query", s.withSession(s.handleQueryCube))
	s.mux.HandleFunc("GET /api/cubes/{name}/members", s.withSession(s.handleCubeMembers))

	// Reporting + delivery services.
	s.mux.HandleFunc("GET /api/reports", s.withSession(s.handleListReports))
	s.mux.HandleFunc("POST /api/reports", s.withSession(s.handleSaveReport))
	s.mux.HandleFunc("DELETE /api/reports/{name}", s.withSession(s.handleDeleteReport))
	s.mux.HandleFunc("GET /api/reports/{name}", s.withSession(s.handleRunReport))
	s.mux.HandleFunc("POST /api/reports/adhoc", s.withSession(s.handleAdHocReport))
}

// --- plumbing ---

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// StatusClientClosedRequest is the nginx-convention status for a request
// whose client went away before the response was written (no stdlib
// constant exists).
const StatusClientClosedRequest = 499

// writeErr maps service errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, StatusFor(err), apiError{Error: err.Error()})
}

// StatusFor maps a service error onto its HTTP-equivalent status code.
// The binary protocol reuses the same mapping in its ERROR frames, so
// a client sees one error vocabulary regardless of transport.
func StatusFor(err error) int {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.Canceled):
		// The client disconnected; the write below is best effort.
		status = StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, security.ErrDenied):
		status = http.StatusForbidden
	case errors.Is(err, security.ErrBadCredentials),
		errors.Is(err, security.ErrTokenInvalid),
		errors.Is(err, security.ErrTokenExpired),
		errors.Is(err, security.ErrDisabled):
		status = http.StatusUnauthorized
	case errors.Is(err, tenant.ErrQuota):
		status = http.StatusPaymentRequired
	case errors.Is(err, tenant.ErrSuspended):
		status = http.StatusForbidden
	case errors.Is(err, services.ErrNoDataSet),
		errors.Is(err, services.ErrNoDataSource),
		errors.Is(err, tenant.ErrNoTenant),
		errors.Is(err, security.ErrNotFound),
		errors.Is(err, storage.ErrNoTable):
		status = http.StatusNotFound
	case errors.Is(err, services.ErrMetaExists),
		errors.Is(err, tenant.ErrExists),
		errors.Is(err, security.ErrExists):
		status = http.StatusConflict
	default:
		// Parse/validation errors surface as 400s; keep 500 for the rest.
		msg := err.Error()
		for _, marker := range []string{
			"sql:", "needs", "unknown", "invalid", "no such", "no cube",
			"no report", "no job", "has no", "requires", "expects",
			"must", "cannot",
		} {
			if strings.Contains(msg, marker) {
				status = http.StatusBadRequest
				break
			}
		}
	}
	return status
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// RequestContext assembles the context one authenticated request runs
// under — the same for both front doors (withSession here, QUERY frames
// in netsrv). It derives from ctx, so a client disconnect or server
// shutdown cancels all downstream work; a tenant session's context is
// stamped with the tenant identity, names the tenant on the request's
// trace, and counts the request and the admission queue wait it already
// paid against the tenant; a positive timeout bounds it with a
// deadline. The caller must call cancel when the request is done.
func RequestContext(ctx context.Context, tenantID string, queueWait, timeout time.Duration) (context.Context, context.CancelFunc) {
	if tenantID != "" {
		ctx = tenant.NewContext(ctx, tenantID)
		obs.SetTraceTenant(ctx, tenantID)
		obs.AddTenant(ctx, obs.TenantRequests, 1)
		if queueWait > 0 {
			obs.AddTenant(ctx, obs.TenantQueueWaitNs, queueWait.Nanoseconds())
		}
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// withSession authenticates the bearer token and passes the session on.
// The handler runs under RequestContext over r.Context().
func (s *Server) withSession(h func(w http.ResponseWriter, r *http.Request, sess *services.Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		auth := r.Header.Get("Authorization")
		const prefix = "Bearer "
		if !strings.HasPrefix(auth, prefix) {
			writeJSON(w, http.StatusUnauthorized, apiError{Error: "missing bearer token"})
			return
		}
		sess, err := s.platform.Resume(strings.TrimPrefix(auth, prefix))
		if err != nil {
			writeErr(w, err)
			return
		}
		wait, _ := r.Context().Value(queueWaitKey{}).(time.Duration)
		ctx, cancel := RequestContext(r.Context(), sess.Principal.Tenant, wait, s.requestTimeout)
		defer cancel()
		// The server.handler point fires after auth with the full request
		// context assembled: error mode injects a handler failure, panic
		// mode drills the recovery middleware, delay mode holds requests
		// to exercise timeouts and admission control.
		if err := fault.PointCtx(ctx, fault.ServerHandler); err != nil {
			writeErr(w, err)
			return
		}
		h(w, r.WithContext(ctx), sess)
	}
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Username string `json:"username"`
		Password string `json:"password"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	_, token, err := s.platform.Login(req.Username, req.Password)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"token": token})
}

func (s *Server) handleWhoami(w http.ResponseWriter, r *http.Request, sess *services.Session) {
	writeJSON(w, http.StatusOK, map[string]any{
		"username":    sess.Principal.Username,
		"tenant":      sess.Principal.Tenant,
		"authorities": sess.Principal.Authorities,
		"expiresAt":   sess.Principal.ExpiresAt,
	})
}
