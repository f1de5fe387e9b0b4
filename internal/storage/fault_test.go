package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/odbis/odbis/internal/fault"
)

// These tests arm each storage fault point in error mode and assert the
// documented recovery semantics: clean aborts stay non-sticky, physical
// write failures latch the WAL read-only, and a successful checkpoint
// heals the latch. Crash-mode coverage of the same points lives in
// crash_test.go.

func countRows(t *testing.T, e *Engine, table string) int {
	t.Helper()
	var n int
	err := e.View(func(tx *Tx) error {
		var err error
		n, err = tx.Count(table)
		return err
	})
	if err != nil {
		t.Fatalf("count %s: %v", table, err)
	}
	return n
}

// StorageWALAppend fires before any byte reaches the file: the commit
// fails, the transaction aborts, and the WAL stays healthy.
func TestFaultWALAppendCleanAbort(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e := openDir(t, dir, SyncBuffered)
	defer e.Close()
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatal(err)
	}

	if err := fault.Arm(fault.StorageWALAppend, fault.Behavior{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	err := e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(1), "ada", int64(36), true})
		return err
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit under armed append point: err = %v, want ErrInjected", err)
	}
	fault.Reset()

	// The failure was pre-write: nothing is latched and the next commit
	// must go through.
	mustInsert(t, e, "users", Row{int64(2), "grace", int64(45), false})
	if n := countRows(t, e, "users"); n != 1 {
		t.Fatalf("rows after clean abort = %d, want 1 (aborted insert must not be visible)", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openDir(t, dir, SyncBuffered)
	defer e2.Close()
	if n := countRows(t, e2, "users"); n != 1 {
		t.Fatalf("rows after reopen = %d, want 1", n)
	}
}

// DDL is write-ahead: with the append point armed, each of the four DDL
// calls returns the injected error and leaves memory, the subscribed
// replica stream and (after a reopen) the disk exactly as they were.
func TestDDLWriteAhead(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e := openDir(t, dir, SyncBuffered)
	defer e.Close()
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatal(err)
	}
	byAge := IndexInfo{Name: "users_age", Table: "users", Columns: []string{"age"}, Kind: IndexBTree}
	if err := e.CreateIndex(byAge); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users", Row{int64(1), "ada", int64(36), true})
	other := usersSchema(t)
	other.Name = "others"
	byName := IndexInfo{Name: "users_name", Table: "users", Columns: []string{"name"}, Kind: IndexHash}

	sub := e.SubscribeWAL(16)
	defer sub.Close()
	before := listState(t, e)
	epoch := e.SchemaEpoch()
	if err := fault.Arm(fault.StorageWALAppend, fault.Behavior{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []struct {
		name string
		call func() error
	}{
		{"CreateTable", func() error { return e.CreateTable(other) }},
		{"CreateIndex", func() error { return e.CreateIndex(byName) }},
		{"DropIndex", func() error { return e.DropIndex("users", "users_age") }},
		{"DropTable", func() error { return e.DropTable("users") }},
	} {
		if err := ddl.call(); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%s under armed append point: err = %v, want ErrInjected", ddl.name, err)
		}
		if got := listState(t, e); got != before {
			t.Errorf("%s failed its WAL append yet changed memory\n--- got\n%s--- want\n%s", ddl.name, got, before)
			before = got
		}
	}
	fault.Reset()
	if got := e.SchemaEpoch(); got != epoch {
		t.Errorf("schema epoch moved %d -> %d across four failed DDL calls", epoch, got)
	}
	select {
	case f := <-sub.Frames():
		t.Errorf("a DDL call that failed its WAL append shipped a %q frame", f.Payload[0])
	default:
	}
	if !e.WALHealthy() {
		t.Error("a pre-write append failure latched the WAL")
	}

	// Nothing was latched, so the same calls go through now — and a
	// reopen sees their outcome, not the failed attempts'.
	if err := e.CreateIndex(byName); err != nil {
		t.Fatal(err)
	}
	if err := e.DropIndex("users", "users_age"); err != nil {
		t.Fatal(err)
	}
	after := listState(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openDir(t, dir, SyncBuffered)
	defer e2.Close()
	if got := listState(t, e2); got != after {
		t.Errorf("reopen differs from memory before close\n--- got\n%s--- want\n%s", got, after)
	}
}

// StorageWALAppendMid fires after the frame header is on disk: the log
// tail is torn, the failure latches, and every later commit fails fast
// until a checkpoint rebuilds the log — after which writes flow again
// and a reopen sees exactly the committed prefix.
func TestFaultWALTornWriteLatchesAndCheckpointHeals(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e := openDir(t, dir, SyncBuffered)
	defer e.Close()
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users", Row{int64(1), "ada", int64(36), true})

	if err := fault.Arm(fault.StorageWALAppendMid, fault.Behavior{Mode: fault.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	err := e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(2), "grace", int64(45), false})
		return err
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn write: err = %v, want ErrInjected", err)
	}

	// The point is exhausted (Count=1) but the latch must hold: the
	// on-disk tail is suspect, so acknowledging more commits would
	// diverge memory from disk.
	err = e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(3), "edsger", int64(72), true})
		return err
	})
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("commit after torn write: err = %v, want ErrWALFailed", err)
	}

	// Checkpoint rewrites state from memory and resets the log: healed.
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("healing checkpoint: %v", err)
	}
	mustInsert(t, e, "users", Row{int64(4), "barbara", int64(28), true})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openDir(t, dir, SyncBuffered)
	defer e2.Close()
	// ada (pre-fault) + barbara (post-heal); the torn and latched-out
	// transactions aborted.
	if n := countRows(t, e2, "users"); n != 2 {
		t.Fatalf("rows after heal+reopen = %d, want 2", n)
	}
}

// A torn tail with no checkpoint: closing and reopening must truncate
// the partial frame and recover the committed prefix.
func TestFaultTornTailTruncatedOnReopen(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e := openDir(t, dir, SyncBuffered)
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users", Row{int64(1), "ada", int64(36), true})
	if err := fault.Arm(fault.StorageWALAppendMid, fault.Behavior{Mode: fault.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(2), "grace", int64(45), false})
		return err
	})
	fault.Reset()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openDir(t, dir, SyncBuffered)
	defer e2.Close()
	if n := countRows(t, e2, "users"); n != 1 {
		t.Fatalf("rows after torn-tail reopen = %d, want 1", n)
	}
	// The truncated log must accept appends again.
	mustInsert(t, e2, "users", Row{int64(5), "tony", int64(60), true})
	if n := countRows(t, e2, "users"); n != 2 {
		t.Fatalf("rows after post-recovery insert = %d, want 2", n)
	}
}

// StorageWALSync fires before the fsync of a SyncFull commit: the commit
// must not be acknowledged, and the failure latches like any physical
// sync error.
func TestFaultWALSyncSticky(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e := openDir(t, dir, SyncFull)
	defer e.Close()
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users", Row{int64(1), "ada", int64(36), true})

	if err := fault.Arm(fault.StorageWALSync, fault.Behavior{Mode: fault.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	err := e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(2), "grace", int64(45), false})
		return err
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit under armed sync point: err = %v, want ErrInjected", err)
	}
	err = e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(3), "edsger", int64(72), true})
		return err
	})
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("commit after failed sync: err = %v, want ErrWALFailed", err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("healing checkpoint: %v", err)
	}
	mustInsert(t, e, "users", Row{int64(4), "barbara", int64(28), true})
	if n := countRows(t, e, "users"); n != 2 {
		t.Fatalf("rows after heal = %d, want 2", n)
	}
}

// StorageSnapshotWrite fires while the temp snapshot is being written:
// Checkpoint must fail without disturbing the live snapshot or the WAL,
// and the engine stays fully writable.
func TestFaultSnapshotWriteFails(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e := openDir(t, dir, SyncBuffered)
	defer e.Close()
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users", Row{int64(1), "ada", int64(36), true})
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users", Row{int64(2), "grace", int64(45), false})

	if err := fault.Arm(fault.StorageSnapshotWrite, fault.Behavior{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint under armed snapshot-write point: err = %v, want ErrInjected", err)
	}
	fault.Reset()

	if _, err := os.Stat(filepath.Join(dir, snapshotFile+".tmp")); !os.IsNotExist(err) {
		t.Errorf("temp snapshot left behind after failed checkpoint (stat err = %v)", err)
	}
	// Still writable, and a reopen recovers everything: the old snapshot
	// plus the WAL it matches.
	mustInsert(t, e, "users", Row{int64(3), "edsger", int64(72), true})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openDir(t, dir, SyncBuffered)
	defer e2.Close()
	if n := countRows(t, e2, "users"); n != 3 {
		t.Fatalf("rows after failed-checkpoint reopen = %d, want 3", n)
	}
}

// StorageSnapshotRename fires between the temp write and the atomic
// publish: same guarantees as a failed write — nothing published,
// nothing lost.
func TestFaultSnapshotRenameFails(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e := openDir(t, dir, SyncBuffered)
	defer e.Close()
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users", Row{int64(1), "ada", int64(36), true})

	if err := fault.Arm(fault.StorageSnapshotRename, fault.Behavior{Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint under armed rename point: err = %v, want ErrInjected", err)
	}
	fault.Reset()

	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Errorf("snapshot published despite failed rename point (stat err = %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile+".tmp")); !os.IsNotExist(err) {
		t.Errorf("temp snapshot left behind (stat err = %v)", err)
	}
	mustInsert(t, e, "users", Row{int64(2), "grace", int64(45), false})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openDir(t, dir, SyncBuffered)
	defer e2.Close()
	if n := countRows(t, e2, "users"); n != 2 {
		t.Fatalf("rows after reopen = %d, want 2", n)
	}
}

// StorageWALTruncate fires after the new snapshot is published but
// before the WAL reset. This is the dangerous window: the on-disk WAL is
// now stale relative to the snapshot. The failure must latch the WAL
// (appending to a log recovery will discard is acknowledging lies), a
// later checkpoint must heal it, and a reopen must recover from the new
// snapshot while discarding the stale log.
func TestFaultWALTruncateLatchesAndRecoveryDiscardsStaleLog(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e := openDir(t, dir, SyncBuffered)
	defer e.Close()
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users", Row{int64(1), "ada", int64(36), true})

	if err := fault.Arm(fault.StorageWALTruncate, fault.Behavior{Mode: fault.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint under armed truncate point: err = %v, want ErrInjected", err)
	}

	// Snapshot is published, WAL is stale: commits must fail fast.
	err := e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(2), "grace", int64(45), false})
		return err
	})
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("commit into stale WAL: err = %v, want ErrWALFailed", err)
	}

	// A clean reopen at this exact state must serve the snapshot and
	// discard the stale log (same data: the snapshot contains the WAL's
	// records).
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openDir(t, dir, SyncBuffered)
	if n := countRows(t, e2, "users"); n != 1 {
		t.Fatalf("rows after stale-log reopen = %d, want 1", n)
	}
	// And the restamped WAL accepts appends again.
	mustInsert(t, e2, "users", Row{int64(3), "edsger", int64(72), true})
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := openDir(t, dir, SyncBuffered)
	defer e3.Close()
	if n := countRows(t, e3, "users"); n != 2 {
		t.Fatalf("rows after second reopen = %d, want 2", n)
	}
}

// A healing checkpoint directly after the truncate failure (no restart)
// must also clear the latch.
func TestFaultWALTruncateHealedByRetry(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	e := openDir(t, dir, SyncBuffered)
	defer e.Close()
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users", Row{int64(1), "ada", int64(36), true})
	if err := fault.Arm(fault.StorageWALTruncate, fault.Behavior{Mode: fault.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint: err = %v, want ErrInjected", err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("retry checkpoint: %v", err)
	}
	mustInsert(t, e, "users", Row{int64(2), "grace", int64(45), false})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openDir(t, dir, SyncBuffered)
	defer e2.Close()
	if n := countRows(t, e2, "users"); n != 2 {
		t.Fatalf("rows after heal = %d, want 2", n)
	}
}
