package sql

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/odbis/odbis/internal/storage"
)

// errAfter is a deterministic context: Err reports context.Canceled
// once it has been polled more than n times, simulating a client that
// disconnects partway through a scan. The poll counter doubles as proof
// the executor actually reached its mid-row checkpoints.
type errAfter struct {
	n     int64
	polls atomic.Int64
}

func (c *errAfter) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *errAfter) Done() <-chan struct{}       { return nil }
func (c *errAfter) Value(key any) any           { return nil }
func (c *errAfter) Err() error {
	if c.polls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// bigJoinDB extends the employee fixture with a wide fact table so a
// join + aggregate has thousands of rows to scan between checkpoints.
func bigJoinDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE big (id INT PRIMARY KEY, dept_id INT, v INT)`)
	err := db.Engine.Update(func(tx *storage.Tx) error {
		for i := 0; i < rows; i++ {
			if _, err := tx.Insert("big", storage.Row{int64(i), int64(i%3 + 1), int64(i % 100)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryContextCancelMidScan: a context cancelled partway through a
// join + aggregate aborts the statement with context.Canceled at a row
// checkpoint, and leaves the store fully readable afterwards.
func TestQueryContextCancelMidScan(t *testing.T) {
	const rows = 5000
	db := bigJoinDB(t, rows)
	const q = `SELECT d.name, COUNT(*) AS n, SUM(b.v) AS total
		FROM big b JOIN dept d ON b.dept_id = d.id
		GROUP BY d.name ORDER BY d.name`

	ctx := &errAfter{n: 3}
	res, err := db.QueryContext(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("partial result leaked: %+v", res)
	}
	if got := ctx.polls.Load(); got <= ctx.n {
		t.Errorf("ctx polled %d times — cancellation never reached a mid-scan checkpoint", got)
	}

	// The aborted scan corrupted nothing: the same query and a full
	// count both succeed on a fresh context.
	res, err = db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatalf("re-run after cancel: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("groups = %d, want 3", len(res.Rows))
	}
	count := mustExec(t, db, `SELECT COUNT(*) FROM big`)
	if count.Rows[0][0] != int64(rows) {
		t.Errorf("rows after cancel = %v, want %d", count.Rows[0][0], rows)
	}
}

// TestWriteCancelRollsBack: a mutation cancelled mid-scan rolls
// back wholesale — no partial UPDATE is ever visible.
func TestWriteCancelRollsBack(t *testing.T) {
	const rows = 5000
	db := bigJoinDB(t, rows)
	before := mustExec(t, db, `SELECT SUM(v) FROM big`).Rows[0][0]

	_, err := db.QueryContext(&errAfter{n: 3}, `UPDATE big SET v = v + 1`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	after := mustExec(t, db, `SELECT SUM(v) FROM big`).Rows[0][0]
	if before != after {
		t.Errorf("SUM(v) %v -> %v: cancelled UPDATE left partial writes", before, after)
	}
}

// TestQueryContextPreCancelled: an already-dead context fails before the
// executor touches a single row, for both reads and writes.
func TestQueryContextPreCancelled(t *testing.T) {
	db := newTestDB(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(cancelled, `SELECT * FROM emp`); !errors.Is(err, context.Canceled) {
		t.Errorf("query err = %v, want context.Canceled", err)
	}
	if _, err := db.QueryContext(cancelled, `INSERT INTO dept VALUES (9, 'late')`); !errors.Is(err, context.Canceled) {
		t.Errorf("exec err = %v, want context.Canceled", err)
	}
	if res := mustExec(t, db, `SELECT COUNT(*) FROM dept`); res.Rows[0][0] != int64(3) {
		t.Errorf("dept count = %v after rejected insert", res.Rows[0][0])
	}
}

// TestQueryContextDeadlineExceeded: an expired deadline surfaces as
// context.DeadlineExceeded (the server maps this to 504).
func TestQueryContextDeadlineExceeded(t *testing.T) {
	db := newTestDB(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := db.QueryContext(ctx, `SELECT * FROM emp`); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}
