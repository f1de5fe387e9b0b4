package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// recoverOver opens a data directory whose WAL is intact — a create-table
// record for users — up to one final frame that carries payload under a
// valid CRC: what recovery is handed when damage got past the checksum.
func recoverOver(t *testing.T, payload []byte) (*Engine, error) {
	t.Helper()
	create, err := encodeRecord(createTable{schema: usersSchema(t)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log := appendFrame(appendFrame(nil, create), payload)
	if err := os.WriteFile(filepath.Join(dir, walFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(Options{Dir: dir})
}

// captureCommitFrame commits one multi-row transaction on a fresh
// primary and returns the shipped commit frame's payload.
func captureCommitFrame(t *testing.T, rows int) []byte {
	t.Helper()
	primary := newTestEngine(t)
	sub := primary.SubscribeWAL(16)
	defer sub.Close()
	var batch []Row
	for i := 0; i < rows; i++ {
		batch = append(batch, Row{int64(i), "torn", int64(30), true})
	}
	mustInsert(t, primary, "users", batch...)
	select {
	case frame := <-sub.Frames():
		if !FrameIsCommit(frame.Payload) {
			t.Fatalf("captured frame type %q, want commit", frame.Payload[0])
		}
		return frame.Payload
	case <-time.After(2 * time.Second):
		t.Fatal("commit frame never shipped")
	}
	return nil
}

// TestTornFrameEveryTruncationOffset: a commit frame truncated at EVERY
// possible offset must be rejected by the one decoder, whoever feeds it —
// a replica (ApplyReplicated) or recovery replaying a WAL frame whose
// CRC happens to pass — and — the actual safety property — must never
// leave a partially visible commit: after the rejection the replica
// reads exactly the rows it read before, and the full frame still
// applies cleanly afterwards (the torn attempt did not burn the rids or
// poison the table).
func TestTornFrameEveryTruncationOffset(t *testing.T) {
	payload := captureCommitFrame(t, 5)
	if len(payload) < 10 {
		t.Fatalf("suspiciously small commit frame (%d bytes)", len(payload))
	}
	for cut := 0; cut < len(payload); cut++ {
		replica := newTestEngine(t)
		torn := payload[:cut]
		if _, err := decodeRecord(torn); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncation at offset %d/%d: decode err = %v, want ErrBadFrame", cut, len(payload), err)
		}
		if e, err := recoverOver(t, torn); !errors.Is(err, ErrBadFrame) {
			if err == nil {
				e.Close()
			}
			t.Fatalf("truncation at offset %d/%d under a valid CRC: recovery err = %v, want ErrBadFrame", cut, len(payload), err)
		}
		err := replica.ApplyReplicated(torn)
		if err == nil {
			t.Fatalf("truncation at offset %d/%d accepted", cut, len(payload))
		}
		if got := countRows(t, replica, "users"); got != 0 {
			t.Fatalf("truncation at offset %d left %d visible rows — partial commit served", cut, got)
		}
		// The replica recovers by re-applying the intact frame (what a
		// re-bootstrap stream delivers): all-or-nothing, so all.
		if err := replica.ApplyReplicated(payload); err != nil {
			t.Fatalf("intact frame after torn attempt at %d: %v", cut, err)
		}
		if got := countRows(t, replica, "users"); got != 5 {
			t.Fatalf("intact frame after torn attempt at %d applied %d rows, want 5", cut, got)
		}
	}
}

// TestCorruptFrameTypeRejected: an unknown frame type byte is ErrBadFrame,
// and flipping the type byte of a valid commit frame never applies rows.
func TestCorruptFrameTypeRejected(t *testing.T) {
	payload := captureCommitFrame(t, 2)
	replica := newTestEngine(t)
	corrupt := append([]byte(nil), payload...)
	corrupt[0] = 0xEE
	if err := replica.ApplyReplicated(corrupt); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt type byte: err = %v, want ErrBadFrame", err)
	}
	if got := countRows(t, replica, "users"); got != 0 {
		t.Fatalf("corrupt frame left %d visible rows", got)
	}
	if e, err := recoverOver(t, corrupt); !errors.Is(err, ErrBadFrame) {
		if err == nil {
			e.Close()
		}
		t.Fatalf("corrupt type byte under a valid CRC: recovery err = %v, want ErrBadFrame", err)
	}
	// The intact frame is what recovery accepts.
	e, err := recoverOver(t, payload)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := countRows(t, e, "users"); got != 2 {
		t.Fatalf("intact frame recovered %d rows, want 2", got)
	}
}
