// Package netsrv serves the ODBIS binary wire protocol (internal/proto)
// over TCP — the platform's second front door, beside the HTTP façade.
// Where HTTP pays connection setup, header parsing, JSON codec and
// token verification on every request, a protocol session pays them
// once: the handshake authenticates the connection, and every
// subsequent QUERY frame rides the open socket with binary framing.
//
// The two front doors share one operational envelope:
//
//   - Admission: both acquire from the same server.Admission semaphore,
//     so MaxInFlight bounds total in-flight work across transports. An
//     over-limit QUERY is answered with a RETRY frame carrying the same
//     backoff a 503's Retry-After would.
//   - Readiness: a platform that fails /readyz (stuck WAL latch,
//     all-tripped replica fleet) refuses new protocol sessions with
//     GOAWAY at accept time instead of accepting and erroring
//     mid-session.
//   - Timeouts: each request context derives from the session and is
//     bounded by the same request timeout the HTTP server applies.
//   - Errors: ERROR frames carry server.StatusFor codes, so a client
//     sees one error vocabulary regardless of transport.
//   - Routing: requests run through services.Session.Query, so cached
//     plans and replica read routing apply unchanged.
//
// One goroutine owns each connection end to end (read, execute, write)
// — no per-request fan-out, no shared writer, and a panic in a session
// is contained exactly like the HTTP recovery middleware contains
// handler panics.
package netsrv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/odbis/odbis/internal/fault"
	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/proto"
	"github.com/odbis/odbis/internal/server"
	"github.com/odbis/odbis/internal/services"
)

// Metric handles are resolved once at package init (request paths must
// not pay the registry lookup — see the obshandle analyzer).
var (
	gSessionsOpen       = obs.GetGauge("odbis_proto_sessions_open")
	mSessionsOpened     = obs.GetCounter("odbis_proto_sessions_opened_total")
	mSessionsClosed     = obs.GetCounter("odbis_proto_sessions_closed_total")
	mSessionsRefused    = obs.GetCounter("odbis_proto_sessions_refused_total")
	mHandshakeFailures  = obs.GetCounter("odbis_proto_handshake_failures_total")
	mFramesIn           = obs.GetCounter("odbis_proto_frames_in_total")
	mFramesOut          = obs.GetCounter("odbis_proto_frames_out_total")
	mBytesIn            = obs.GetCounter("odbis_proto_bytes_in_total")
	mBytesOut           = obs.GetCounter("odbis_proto_bytes_out_total")
	mRequests           = obs.GetCounter("odbis_proto_requests_total")
	mRequestErrors      = obs.GetCounter("odbis_proto_request_errors_total")
	mRetries            = obs.GetCounter("odbis_proto_retry_total")
	mSessionPanics      = obs.GetCounter("odbis_proto_session_panics_total")
	mRequestSeconds     = obs.GetHistogram("odbis_proto_request_seconds", nil)
	mHandshakeSeconds   = obs.GetHistogram("odbis_proto_handshake_seconds", nil)
	mChunkRowsStreamed  = obs.GetCounter("odbis_proto_rows_streamed_total")
	mGoAwaySent         = obs.GetCounter("odbis_proto_goaway_sent_total")
	mSessionQueueWaitNs = obs.GetHistogram("odbis_proto_queue_wait_seconds", nil)
)

// Options configure the protocol listener.
type Options struct {
	// RequestTimeout caps the wall-clock time of each QUERY, exactly as
	// the HTTP server's option does (0 = unbounded).
	RequestTimeout time.Duration
	// Admission, when non-nil, is the load-shedding semaphore shared
	// with the HTTP façade. Over-limit requests get a RETRY frame.
	Admission *server.Admission
	// RetryBackoff is the backoff advertised in RETRY frames (the
	// protocol twin of Retry-After; default 1s).
	RetryBackoff time.Duration
	// HandshakeTimeout bounds how long a new connection may take to
	// complete the HELLO/WELCOME exchange (default 5s). A connection
	// that dials and stalls must not pin a session goroutine forever.
	HandshakeTimeout time.Duration
	// ChunkRows is the row count per RESULT_CHUNK frame (default 256).
	// Chunking bounds per-frame memory on both sides of large results.
	ChunkRows int
	// MaxFrame bounds inbound frame payloads (default proto.DefaultMaxFrame).
	MaxFrame int
	// Ready gates new sessions: when it returns false the listener
	// answers the handshake with GOAWAY and closes, mirroring /readyz.
	// Nil means always ready.
	Ready func() bool
}

// Server is the protocol listener.
type Server struct {
	platform *services.Platform
	opts     Options

	// baseCtx parents every request context; Close cancels it, aborting
	// in-flight queries before connections are torn down.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	sessions map[*session]struct{}
	closed   bool

	wg sync.WaitGroup
}

// New builds a protocol server over a platform.
func New(p *services.Platform, opts Options) *Server {
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = time.Second
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = 5 * time.Second
	}
	if opts.ChunkRows <= 0 {
		opts.ChunkRows = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		platform: p,
		opts:     opts,
		baseCtx:  ctx,
		cancel:   cancel,
		sessions: make(map[*session]struct{}),
	}
}

// Listen starts accepting protocol sessions on addr and returns the
// bound address (so addr may use port 0 in tests). The accept loop and
// all sessions run on joined goroutines; Close tears everything down.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil, errors.New("netsrv: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				// Listener closed (shutdown) or fatal accept error:
				// either way the accept loop is done; sessions drain
				// independently and Close joins them.
				return
			}
			s.startSession(conn)
		}
	}()
	return l.Addr(), nil
}

// startSession launches the owning goroutine for one connection. The
// framing is wired here, before the goroutine exists, so Close's
// GOAWAY broadcast never races a half-initialized session.
func (s *Server) startSession(conn net.Conn) {
	sess := &session{srv: s, conn: conn, w: proto.NewWriter(conn), r: proto.NewReader(conn)}
	if s.opts.MaxFrame > 0 {
		sess.r.SetMaxFrame(s.opts.MaxFrame)
	}
	if !s.register(sess) {
		conn.Close()
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			// A panicking session must not take down the platform: the
			// HTTP recovery middleware is not on this stack, so the
			// protocol layer carries its own containment.
			if rec := recover(); rec != nil {
				mSessionPanics.Inc()
			}
			s.dropSession(sess)
		}()
		sess.run(s.baseCtx)
	}()
}

// register adds the session to the live set unless the server is
// already closing (in which case the caller drops the connection).
func (s *Server) register(sess *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.sessions[sess] = struct{}{}
	return true
}

func (s *Server) dropSession(sess *session) {
	sess.conn.Close()
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// Close stops accepting, cancels in-flight requests, sends best-effort
// GOAWAY to open sessions, closes their connections and joins every
// goroutine. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	open := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()

	// Cancel first: in-flight queries abort at their next checkpoint,
	// so sessions come home quickly instead of streaming out a large
	// result into a dying connection.
	s.cancel()
	if l != nil {
		l.Close()
	}
	for _, sess := range open {
		sess.goAway("server shutting down")
		sess.conn.Close()
	}
	s.wg.Wait()
	return nil
}

// ready reports whether new sessions should be admitted, mirroring the
// HTTP /readyz probe.
func (s *Server) ready() bool {
	if s.opts.Ready == nil {
		return true
	}
	return s.opts.Ready()
}

// session is one authenticated protocol connection, owned end to end
// by a single goroutine (run). writeMu serializes that goroutine's
// response frames against the best-effort GOAWAY Close sends from the
// shutdown path — the only cross-goroutine writer.
type session struct {
	srv  *Server
	conn net.Conn

	writeMu sync.Mutex
	w       *proto.Writer
	r       *proto.Reader

	sess *services.Session
	// buf is the reused frame-encode buffer: steady-state responses
	// allocate nothing on the encode side.
	buf []byte
}

// run drives the connection: readiness gate, handshake, request loop.
func (sn *session) run(base context.Context) {
	mSessionsOpened.Inc()
	gSessionsOpen.Add(1)
	defer func() {
		gSessionsOpen.Add(-1)
		mSessionsClosed.Inc()
		mFramesIn.Add(int64(sn.r.Frames()))
		mBytesIn.Add(int64(sn.r.Bytes()))
		// Writer counters are shared with the shutdown GOAWAY path, so
		// they are read under the same lock that guards those writes.
		sn.writeMu.Lock()
		mFramesOut.Add(int64(sn.w.Frames()))
		mBytesOut.Add(int64(sn.w.Bytes()))
		sn.writeMu.Unlock()
	}()

	// A degraded platform refuses the session up front —
	// the client's pool can dial a healthy instance instead of
	// discovering the degradation one failed query at a time.
	if !sn.srv.ready() {
		mSessionsRefused.Inc()
		sn.goAway("platform not ready")
		return
	}

	if !sn.handshake() {
		return
	}

	for {
		t, payload, err := sn.r.ReadFrame()
		if err != nil {
			// EOF, closed connection, oversized or corrupt frame: the
			// session ends. Corruption is not recoverable — framing is
			// lost — so there is no error frame to send here.
			return
		}
		switch t {
		case proto.FramePing:
			if !sn.respond(func() error {
				return sn.w.WriteFrame(proto.FramePong, payload)
			}) {
				return
			}
		case proto.FrameQuery:
			if !sn.handleQuery(base, payload) {
				return
			}
		case proto.FrameGoAway:
			// Client is done with the connection.
			return
		default:
			if !sn.respond(func() error {
				sn.buf = proto.AppendError(sn.buf[:0], 0, 400, fmt.Sprintf("unexpected %v frame", t))
				return sn.w.WriteFrame(proto.FrameError, sn.buf)
			}) {
				return
			}
		}
	}
}

// handshake performs the HELLO/WELCOME exchange under a deadline,
// resolving the bearer token to a platform session. It reports whether
// the connection is authenticated and may proceed.
func (sn *session) handshake() bool {
	start := time.Now()
	sn.conn.SetDeadline(start.Add(sn.srv.opts.HandshakeTimeout))
	defer sn.conn.SetDeadline(time.Time{})

	t, payload, err := sn.r.ReadFrame()
	if err != nil || t != proto.FrameHello {
		mHandshakeFailures.Inc()
		sn.sendError(0, 400, "expected HELLO")
		return false
	}
	token, err := proto.ParseHello(payload)
	if err != nil {
		mHandshakeFailures.Inc()
		sn.sendError(0, 400, err.Error())
		return false
	}
	sess, err := sn.srv.platform.Resume(token)
	if err != nil {
		mHandshakeFailures.Inc()
		sn.sendError(0, uint16(server.StatusFor(err)), err.Error())
		return false
	}
	sn.sess = sess
	ok := sn.respond(func() error {
		sn.buf = proto.AppendWelcome(sn.buf[:0], sess.Principal.Tenant)
		return sn.w.WriteFrame(proto.FrameWelcome, sn.buf)
	})
	mHandshakeSeconds.ObserveDuration(time.Since(start))
	return ok
}

// handleQuery executes one QUERY frame: admission, context assembly,
// execution, streamed response. It reports whether the session should
// continue (false = write side failed, connection is dead).
func (sn *session) handleQuery(base context.Context, payload []byte) bool {
	start := time.Now()
	mRequests.Inc()
	id, sqlText, args, err := proto.ParseQuery(payload)
	if err != nil {
		mRequestErrors.Inc()
		return sn.sendError(0, 400, "malformed QUERY: "+err.Error())
	}

	// Admission: the shared semaphore bounds in-flight work across both
	// front doors. Shedding answers with RETRY — the protocol twin of
	// 503 + Retry-After — and keeps the session alive.
	admitted, wait := sn.srv.opts.Admission.Acquire(base)
	if wait > 0 {
		mSessionQueueWaitNs.ObserveDuration(wait)
	}
	if !admitted {
		mRetries.Inc()
		return sn.respond(func() error {
			sn.buf = proto.AppendRetry(sn.buf[:0], id, sn.srv.opts.RetryBackoff)
			return sn.w.WriteFrame(proto.FrameRetry, sn.buf)
		})
	}
	defer sn.srv.opts.Admission.Release()

	// Same request context as withSession on the HTTP side, under this
	// door's own trace root and fault point.
	ctx, root := obs.StartTrace(base, "PROTO query")
	defer root.End()
	ctx, cancel := server.RequestContext(ctx, sn.sess.Principal.Tenant, wait, sn.srv.opts.RequestTimeout)
	defer cancel()

	if err := fault.PointCtx(ctx, fault.NetsrvSession); err != nil {
		mRequestErrors.Inc()
		return sn.sendError(id, uint16(server.StatusFor(err)), err.Error())
	}

	res, err := sn.sess.Query(ctx, sqlText, args...)
	if err != nil {
		mRequestErrors.Inc()
		return sn.sendError(id, uint16(server.StatusFor(err)), err.Error())
	}

	ok := sn.respond(func() error {
		sn.buf = proto.AppendResultHeader(sn.buf[:0], id, res.Columns)
		if err := sn.w.WriteFrame(proto.FrameResultHeader, sn.buf); err != nil {
			return err
		}
		rows := res.Rows
		for len(rows) > 0 {
			n := sn.srv.opts.ChunkRows
			if n > len(rows) {
				n = len(rows)
			}
			var err error
			if sn.buf, err = proto.AppendRows(sn.buf[:0], id, rows[:n]); err != nil {
				return err
			}
			if err := sn.w.WriteFrame(proto.FrameResultChunk, sn.buf); err != nil {
				return err
			}
			mChunkRowsStreamed.Add(int64(n))
			rows = rows[n:]
		}
		sn.buf = proto.AppendDone(sn.buf[:0], id, uint32(res.Affected), uint32(len(res.Rows)), res.Plan)
		return sn.w.WriteFrame(proto.FrameResultDone, sn.buf)
	})
	mRequestSeconds.ObserveDuration(time.Since(start))
	return ok
}

// respond runs a write sequence under the write lock and flushes. The
// netsrv.write fault point fires first: arming it simulates the
// connection dying mid-response. Returns false when the write side
// failed (the caller should end the session).
func (sn *session) respond(write func() error) bool {
	sn.writeMu.Lock()
	defer sn.writeMu.Unlock()
	if err := fault.Point(fault.NetsrvWrite); err != nil {
		return false
	}
	if err := write(); err != nil {
		return false
	}
	return sn.w.Flush() == nil
}

// sendError writes an ERROR frame; the session continues (true) unless
// the write itself failed.
func (sn *session) sendError(id uint32, code uint16, msg string) bool {
	return sn.respond(func() error {
		sn.buf = proto.AppendError(sn.buf[:0], id, code, msg)
		return sn.w.WriteFrame(proto.FrameError, sn.buf)
	})
}

// goAway sends a best-effort GOAWAY frame. Called from the session's
// own goroutine (refused sessions) and from Close (shutdown broadcast)
// — the write lock makes the two safe together.
func (sn *session) goAway(reason string) {
	sn.writeMu.Lock()
	defer sn.writeMu.Unlock()
	// The GOAWAY payload is built on a local buffer, not sn.buf: the
	// shutdown path runs concurrently with the session goroutine, which
	// owns sn.buf.
	payload := proto.AppendGoAway(nil, reason)
	if err := sn.w.WriteFrame(proto.FrameGoAway, payload); err != nil {
		return
	}
	sn.w.Flush()
	mGoAwaySent.Inc()
}
