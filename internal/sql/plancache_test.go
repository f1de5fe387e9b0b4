package sql

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

// TestPlanCacheHitRatio is the dashboard workload in miniature: the
// same SELECT re-run N times must parse and plan once and hit the
// cache for every later run (≥ 90% of executions).
func TestPlanCacheHitRatio(t *testing.T) {
	db := newTestDB(t)
	const runs = 20
	q := "SELECT name FROM emp WHERE salary > ? ORDER BY name"
	var want []string
	for i := 0; i < runs; i++ {
		res := mustExec(t, db, q, float64(100))
		got := rowsAsStrings(res)
		if i == 0 {
			want = got
			continue
		}
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("run %d: rows %v, want %v", i, got, want)
		}
	}
	st := db.PlanCacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single cold parse+plan)", st.Misses)
	}
	if st.Hits != runs-1 {
		t.Errorf("hits = %d, want %d", st.Hits, runs-1)
	}
	ratio := float64(st.Hits) / float64(st.Hits+st.Misses)
	if ratio < 0.9 {
		t.Errorf("hit ratio = %.2f, want >= 0.90", ratio)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestPlanCacheDDLInvalidation checks epoch-based coherence: DDL bumps
// the schema epoch, the cached plan goes stale, and the next execution
// replans (counted as a miss) and picks up the new access path.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT name FROM emp WHERE salary = 90.0"
	res := mustExec(t, db, q)
	if res.Plan != "scan" {
		t.Fatalf("cold plan = %q, want scan (no index yet)", res.Plan)
	}
	mustExec(t, db, q) // warm: hit
	before := db.PlanCacheStats()
	if before.Hits != 1 || before.Misses != 1 {
		t.Fatalf("warm stats = %+v, want 1 hit / 1 miss", before)
	}

	mustExec(t, db, "CREATE INDEX emp_sal ON emp (salary)")

	res = mustExec(t, db, q)
	if !strings.HasPrefix(res.Plan, "index:") {
		t.Fatalf("post-DDL plan = %q, want index path (stale plan served)", res.Plan)
	}
	if got := rowsAsStrings(res); len(got) != 1 || got[0] != "tony" {
		t.Fatalf("post-DDL rows = %v, want [tony]", got)
	}
	after := db.PlanCacheStats()
	if after.Misses != before.Misses+1 {
		t.Errorf("misses %d -> %d, want +1 for the stale replan", before.Misses, after.Misses)
	}

	// The replanned entry is fresh again: next run is a hit on the
	// index plan.
	res = mustExec(t, db, q)
	if !strings.HasPrefix(res.Plan, "index:") {
		t.Fatalf("re-warmed plan = %q, want index path", res.Plan)
	}
	if st := db.PlanCacheStats(); st.Hits != after.Hits+1 {
		t.Errorf("hits %d -> %d, want +1", after.Hits, st.Hits)
	}
}

// TestPlanCacheDropTable: dropping the table invalidates the plan; the
// replan fails cleanly instead of executing against a dead schema.
func TestPlanCacheDropTable(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT id FROM dept"
	mustExec(t, db, q)
	mustExec(t, db, "DROP TABLE dept")
	if _, err := db.QueryContext(context.Background(), q); err == nil {
		t.Fatal("query against dropped table succeeded from the plan cache")
	}
}

// TestPlanCacheEvictionBound: the LRU never holds more than its cap,
// and overflow shows up in the eviction counter.
func TestPlanCacheEvictionBound(t *testing.T) {
	db := newTestDB(t)
	over := planCacheCap + 16
	for i := 0; i < over; i++ {
		mustExec(t, db, fmt.Sprintf("SELECT id FROM emp WHERE id = %d", i))
	}
	st := db.PlanCacheStats()
	if st.Entries > planCacheCap {
		t.Errorf("entries = %d, want <= %d", st.Entries, planCacheCap)
	}
	if st.Evictions < uint64(over-planCacheCap) {
		t.Errorf("evictions = %d, want >= %d", st.Evictions, over-planCacheCap)
	}
	// LRU order: the most recent text must still be cached.
	mustPrepare(t, db, "", fmt.Sprintf("SELECT id FROM emp WHERE id = %d", over-1))
	if after := db.PlanCacheStats(); after.Hits != st.Hits+1 {
		t.Error("most recently used entry was evicted")
	}
}

// TestPlanCacheDisabled: with the cache off nothing is cached or
// counted, and queries still work.
func TestPlanCacheDisabled(t *testing.T) {
	SetPlanCacheEnabled(false)
	defer SetPlanCacheEnabled(true)
	db := newTestDB(t)
	q := "SELECT COUNT(*) FROM emp"
	for i := 0; i < 3; i++ {
		res := mustExec(t, db, q)
		if got := rowsAsStrings(res); got[0] != "6" {
			t.Fatalf("COUNT(*) = %v", got)
		}
	}
	st := db.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("disabled cache has activity: %+v", st)
	}
}

// TestPlanCacheNamespaces: the same SQL text under different
// namespaces (tenants) is two distinct entries.
func TestPlanCacheNamespaces(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT id FROM emp"
	acme := mustPrepare(t, db, "acme", q)
	if _, err := acme.QueryContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPrepare(t, db, "", q)
	if st := db.PlanCacheStats(); st.Hits != 0 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses / 2 entries: namespace acme leaked into the default namespace", st)
	}
	mustPrepare(t, db, "acme", q)
	if st := db.PlanCacheStats(); st.Hits != 1 {
		t.Errorf("hits = %d, want 1: prepared statement not visible under its namespace", st.Hits)
	}
}

func mustPrepare(t testing.TB, db *DB, ns, q string) *Stmt {
	t.Helper()
	st, err := db.Prepare(ns, q, nil)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", q, err)
	}
	return st
}

// TestPlanCacheCoherentUnderConcurrentDDL hammers cached reads while
// another goroutine churns the schema under them. Run under -race in
// CI. The plan is validated against the schema epoch when it is
// resolved but the scan opens later, so every case asserts the same
// thing: DDL committed in between costs at most a slower path or a
// no-such-table error, never wrong rows, a panic, or an error about an
// index the client never named.
//
// Each churn runs twice: readers on the primary that executes the DDL,
// and readers on a replica engine (dump + WAL tail) that applies the
// same DDL as shipped frames under its own schema epoch.
func TestPlanCacheCoherentUnderConcurrentDDL(t *testing.T) {
	churns := []struct {
		name  string
		query string
		ddl   []string
		// gone: the churn drops the table, so a read may also find it
		// missing, or recreated and not yet refilled (the INSERT is one
		// transaction: all of its rows or none).
		gone bool
	}{
		{
			name:  "index",
			query: "SELECT name FROM emp WHERE dept_id = 1 ORDER BY name",
			ddl: []string{
				"CREATE INDEX emp_dept ON emp (dept_id)",
				"DROP INDEX emp_dept ON emp",
			},
		},
		{
			name:  "table",
			query: "SELECT name FROM dept WHERE id >= 2 ORDER BY name",
			ddl: []string{
				"DROP TABLE dept",
				"CREATE TABLE dept (id INT PRIMARY KEY, name TEXT NOT NULL)",
				"CREATE INDEX dept_id ON dept (id) USING BTREE",
				"INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')",
			},
			gone: true,
		},
	}
	for _, c := range churns {
		for _, onReplica := range []bool{false, true} {
			name := c.name + "/primary"
			if onReplica {
				name = c.name + "/replica"
			}
			t.Run(name, func(t *testing.T) {
				primary := newTestDB(t)
				want := strings.Join(rowsAsStrings(mustExec(t, primary, c.query)), ";")
				errs := make(chan error, 8)
				var wg sync.WaitGroup

				reader := primary
				var sub *storage.WALSub
				if onReplica {
					// Subscribe before the dump so no commit falls between them.
					sub = primary.Engine.SubscribeWAL(4096)
					var dump bytes.Buffer
					if err := primary.Engine.DumpState(&dump); err != nil {
						t.Fatal(err)
					}
					eng, err := storage.OpenFromDump(dump.Bytes())
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { eng.Close() })
					reader = NewDB(eng)
					mustExec(t, reader, c.query) // warm the replica's own cache
					wg.Add(1)
					go func() {
						defer wg.Done()
						for f := range sub.Frames() {
							if err := eng.ApplyReplicated(f.Payload); err != nil {
								errs <- fmt.Errorf("apply lsn %d: %w", f.LSN, err)
								return
							}
						}
					}()
				}

				const readers = 4
				const rounds = 50
				var ddl sync.WaitGroup
				ddl.Add(1)
				go func() {
					defer ddl.Done()
					for i := 0; i < rounds; i++ {
						for _, q := range c.ddl {
							if _, err := primary.QueryContext(context.Background(), q); err != nil {
								errs <- fmt.Errorf("%s: %w", q, err)
								return
							}
						}
					}
				}()
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < rounds; i++ {
							res, err := reader.QueryContext(context.Background(), c.query)
							if err != nil {
								if c.gone && errors.Is(err, storage.ErrNoTable) {
									continue
								}
								errs <- err
								return
							}
							got := strings.Join(rowsAsStrings(res), ";")
							if got != want && !(c.gone && got == "") {
								errs <- fmt.Errorf("read %d: rows %q, want %q (plan %s)", i, got, want, res.Plan)
								return
							}
						}
					}()
				}
				ddl.Wait()
				if sub != nil {
					sub.Close() // ends the apply loop once it has drained
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			})
		}
	}
}

// --- EXPLAIN ---

func TestExplainSelect(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "EXPLAIN SELECT name FROM emp WHERE salary > 100 ORDER BY name")
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v, want [plan]", res.Columns)
	}
	text := strings.Join(rowsAsStrings(res), "\n")
	for _, want := range []string{"sort name", "project name", "filter (salary > 100)", "scan emp"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	if res.Plan != "scan" {
		t.Errorf("Result.Plan = %q, want scan (back-compat access path)", res.Plan)
	}
}

func TestExplainShowsIndexAndJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX emp_sal ON emp (salary)")
	res := mustExec(t, db, "EXPLAIN SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id WHERE e.salary = 90.0")
	text := strings.Join(rowsAsStrings(res), "\n")
	if !strings.Contains(text, "index-scan emp using emp_sal") {
		t.Errorf("EXPLAIN missing index scan:\n%s", text)
	}
	if !strings.Contains(text, "hash join (inner)") {
		t.Errorf("EXPLAIN missing hash join:\n%s", text)
	}
}

func TestExplainRejectsNonSelect(t *testing.T) {
	db := newTestDB(t)
	_, err := db.QueryContext(context.Background(), "EXPLAIN INSERT INTO dept VALUES (9, 'x')")
	if err == nil || !strings.Contains(err.Error(), "EXPLAIN supports SELECT") {
		t.Fatalf("EXPLAIN INSERT: err = %v", err)
	}
}

// TestPreparedStmtReuse exercises the Stmt handle directly: one
// prepare, many executions with different parameters.
func TestPreparedStmtReuse(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT name FROM emp WHERE dept_id = ?"
	st := mustPrepare(t, db, "", q)
	for dept, wantN := range map[int64]int{1: 3, 2: 2, 3: 0} {
		res, err := st.QueryContext(context.Background(), dept)
		if err != nil {
			t.Fatalf("dept %d: %v", dept, err)
		}
		if len(res.Rows) != wantN {
			t.Errorf("dept %d: %d rows, want %d", dept, len(res.Rows), wantN)
		}
	}
	if _, ok := st.Statement().(*SelectStmt); !ok {
		t.Errorf("Statement() = %T, want *SelectStmt", st.Statement())
	}
}
