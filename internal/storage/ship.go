package storage

import (
	"sync"
	"sync/atomic"
)

// WAL frame shipping: the primary side of the replication protocol.
//
// Every committed transaction and every auto-committed DDL/sequence
// mutation produces one redo record (record.go), and the frame tap fans
// its payload out to subscribers in commit order: on a durable engine the
// very bytes that were appended to the WAL, on an in-memory one the same
// encoding, made only when someone is subscribed. The tap observes
// memory-state mutations, not the WAL file, so in-memory engines ship
// exactly like durable ones.
//
// The shipping invariant: a subscriber that registers and then dumps the
// primary's state sees every committed transaction exactly once — in the
// dump, on the channel, or both (never neither). Commit makes its
// memory-visibility flip (finishTx) and its ship atomic under tap.mu, and
// SubscribeWAL registers under the same mutex, so a commit either
// completes its flip before registration (and is in any later dump) or
// ships to the already-registered channel. Overlap is resolved by the
// consumer applying idempotently (ApplyReplicated).

// WALFrame is one shipped redo record.
type WALFrame struct {
	// LSN is the frame's position in the ship stream (1 = first frame
	// since engine start). LSNs are process-lifetime, not durable.
	LSN uint64
	// Payload is the WAL-record encoding of the mutation. It is shared
	// across subscribers and must not be mutated.
	Payload []byte
}

// WALSub is one subscription to the primary's shipped frame stream.
type WALSub struct {
	// StartLSN/StartBytes/StartCommitLSN are the tap positions at
	// registration: everything at or before them is covered by a state
	// dump taken after Subscribe, everything after arrives on Frames.
	StartLSN       uint64
	StartBytes     uint64
	StartCommitLSN uint64

	ch chan WALFrame
	id int
	e  *Engine
}

// Frames delivers shipped frames in LSN order. The channel is closed
// when the subscriber falls behind (its buffer overflowed — commits
// never block on a slow consumer), or when the subscription or engine
// is closed; a consumer seeing the close must re-bootstrap.
func (s *WALSub) Frames() <-chan WALFrame { return s.ch }

// Close cancels the subscription. Closing twice is a no-op.
func (s *WALSub) Close() {
	tp := &s.e.tap
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if _, ok := tp.subs[s.id]; ok {
		delete(tp.subs, s.id)
		close(s.ch)
	}
}

// frameTap fans committed redo frames out to WAL subscribers.
type frameTap struct {
	mu sync.Mutex
	//odbis:guardedby mu
	subs map[int]*WALSub
	//odbis:guardedby mu
	nextID int
	//odbis:guardedby mu -- authoritative positions; the atomics below republish them for lock-free lag reads
	lsn, bytes, commitLSN uint64

	// Lock-free mirrors of the positions above, for lag accounting on
	// read paths that must not contend with commits.
	pubLSN       atomic.Uint64
	pubBytes     atomic.Uint64
	pubCommitLSN atomic.Uint64
}

// SubscribeWAL registers a subscriber for all frames shipped after the
// returned Start positions. buf is the channel capacity (≤0 selects a
// default); a subscriber that lets the buffer fill is dropped and its
// channel closed rather than ever blocking a commit.
//
// Bootstrap protocol: Subscribe first, then DumpState. The dump covers
// every commit at or before StartLSN; the channel covers everything
// after. Frames the dump already contains re-apply idempotently.
func (e *Engine) SubscribeWAL(buf int) *WALSub {
	if buf <= 0 {
		buf = 256
	}
	tp := &e.tap
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.subs == nil {
		tp.subs = make(map[int]*WALSub)
	}
	tp.nextID++
	sub := &WALSub{
		StartLSN:       tp.lsn,
		StartBytes:     tp.bytes,
		StartCommitLSN: tp.commitLSN,
		ch:             make(chan WALFrame, buf),
		id:             tp.nextID,
		e:              e,
	}
	tp.subs[sub.id] = sub
	return sub
}

// ShippedLSN reports the primary's current ship position (frames).
func (e *Engine) ShippedLSN() uint64 { return e.tap.pubLSN.Load() }

// ShippedBytes reports cumulative shipped payload bytes. Byte accounting
// only advances while at least one subscriber is registered (frames are
// encoded lazily), so it is meaningful as a delta against a
// subscription's StartBytes, not as an absolute volume.
func (e *Engine) ShippedBytes() uint64 { return e.tap.pubBytes.Load() }

// ShippedCommitLSN reports the LSN of the most recent commit frame
// (DDL and sequence frames advance the LSN but not the commit LSN).
func (e *Engine) ShippedCommitLSN() uint64 { return e.tap.pubCommitLSN.Load() }

// WALHealthy reports whether the engine can still accept commits: true
// for in-memory engines, false once the WAL latch is stuck (ErrWALFailed
// until a checkpoint or restart clears it).
func (e *Engine) WALHealthy() bool {
	if e.wal == nil {
		return true
	}
	e.wal.mu.Lock()
	defer e.wal.mu.Unlock()
	return e.wal.failed == nil
}

// closeTap drops every subscriber (engine shutdown).
func (e *Engine) closeTap() {
	tp := &e.tap
	tp.mu.Lock()
	defer tp.mu.Unlock()
	for id, sub := range tp.subs {
		delete(tp.subs, id)
		close(sub.ch)
	}
}

// shipLocked advances the ship position by one frame and fans r out.
// payload is r's encoding when the caller has it already — a durable
// engine wrote those bytes to its WAL — and nil otherwise; an in-memory
// engine's record is encoded here, and only when a subscriber exists, so
// the disabled-replication cost of a ship site is one uncontended mutex
// and two integer stores. The caller holds tap.mu; shipLocked acquires
// no other locks.
func (tp *frameTap) shipLocked(r redo, payload []byte) {
	tp.lsn++
	if _, isCommit := r.(commit); isCommit {
		tp.commitLSN = tp.lsn
	}
	if len(tp.subs) > 0 {
		if payload == nil {
			// Every value in a record passed CheckValue, so encoding
			// cannot fail; were it to, the follower's decoder rejects the
			// short payload and the replica re-bootstraps.
			payload, _ = encodeRecord(r)
		}
		tp.bytes += uint64(len(payload))
		frame := WALFrame{LSN: tp.lsn, Payload: payload}
		for id, sub := range tp.subs {
			select {
			case sub.ch <- frame:
			default:
				// The subscriber's buffer is full: it is too far behind
				// to catch up frame-by-frame. Drop it — the closed
				// channel tells the consumer to re-bootstrap — rather
				// than ever letting a slow replica block a commit.
				delete(tp.subs, id)
				close(sub.ch)
			}
		}
	}
	tp.pubLSN.Store(tp.lsn)
	tp.pubBytes.Store(tp.bytes)
	tp.pubCommitLSN.Store(tp.commitLSN)
}

// ship is shipLocked for call sites that do not already hold tap.mu.
func (e *Engine) ship(r redo, payload []byte) {
	e.tap.mu.Lock()
	e.tap.shipLocked(r, payload)
	e.tap.mu.Unlock()
}

// FrameIsCommit reports whether a shipped payload is a commit frame
// (as opposed to DDL or sequence) — followers use it for commit-LSN
// lag accounting without decoding the frame.
func FrameIsCommit(payload []byte) bool {
	return len(payload) > 0 && payload[0] == recCommit
}
