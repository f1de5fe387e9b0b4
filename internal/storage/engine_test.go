package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func usersSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema("users",
		[]Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "name", Type: TypeString, NotNull: true},
			{Name: "age", Type: TypeInt},
			{Name: "active", Type: TypeBool, Default: true},
		},
		"id")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	e := MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	if err := e.CreateTable(usersSchema(t)); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return e
}

func mustInsert(t testing.TB, e *Engine, table string, rows ...Row) []RID {
	t.Helper()
	var rids []RID
	err := e.Update(func(tx *Tx) error {
		for _, r := range rows {
			rid, err := tx.Insert(table, r)
			if err != nil {
				return err
			}
			rids = append(rids, rid)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	return rids
}

func TestCreateTableValidation(t *testing.T) {
	e := MustOpenMemory()
	defer e.Close()
	if err := e.CreateTable(&Schema{Name: "bad name!", Columns: []Column{{Name: "a", Type: TypeInt}}}); err == nil {
		t.Error("invalid table name accepted")
	}
	if err := e.CreateTable(&Schema{Name: "t", Columns: nil}); err == nil {
		t.Error("empty column list accepted")
	}
	s := usersSchema(t)
	if err := e.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(s); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if !e.HasTable("USERS") {
		t.Error("table lookup should be case-insensitive")
	}
}

func TestInsertScanRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	mustInsert(t, e, "users",
		Row{int64(1), "ada", int64(36), true},
		Row{int64(2), "grace", int64(45), false},
	)
	var got []Row
	err := e.View(func(tx *Tx) error {
		return tx.Scan("users", func(rid RID, row Row) bool {
			got = append(got, row.Clone())
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scan returned %d rows, want 2", len(got))
	}
	if got[0][1] != "ada" || got[1][1] != "grace" {
		t.Errorf("rows = %v", got)
	}
}

func TestInsertDefaultsAndNotNull(t *testing.T) {
	e := newTestEngine(t)
	var rid RID
	err := e.Update(func(tx *Tx) error {
		var err error
		rid, err = tx.InsertMap("users", map[string]Value{"id": 1, "name": "ada", "age": nil})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	e.View(func(tx *Tx) error {
		row, err := tx.Get("users", rid)
		if err != nil {
			t.Fatal(err)
		}
		if row[3] != true {
			t.Errorf("default not applied: active = %v", row[3])
		}
		if row[2] != nil {
			t.Errorf("nullable column = %v, want nil", row[2])
		}
		return nil
	})
	err = e.Update(func(tx *Tx) error {
		_, err := tx.InsertMap("users", map[string]Value{"id": 2})
		return err
	})
	if err == nil {
		t.Error("NOT NULL violation accepted")
	}
	err = e.Update(func(tx *Tx) error {
		_, err := tx.InsertMap("users", map[string]Value{"id": 3, "name": "x", "bogus": 1})
		return err
	})
	if err == nil {
		t.Error("unknown column accepted")
	}
}

func TestPrimaryKeyUnique(t *testing.T) {
	e := newTestEngine(t)
	mustInsert(t, e, "users", Row{int64(1), "ada", nil, nil})
	err := e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(1), "dup", nil, nil})
		return err
	})
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate pk: %v", err)
	}
	// After a delete the key is reusable.
	var rid RID
	e.View(func(tx *Tx) error {
		return tx.Scan("users", func(r RID, row Row) bool { rid = r; return false })
	})
	if err := e.Update(func(tx *Tx) error { return tx.DeleteRID("users", rid) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(1), "reborn", nil, nil})
		return err
	}); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestUpdateRID(t *testing.T) {
	e := newTestEngine(t)
	rids := mustInsert(t, e, "users", Row{int64(1), "ada", int64(30), true})
	var newRID RID
	err := e.Update(func(tx *Tx) error {
		var err error
		newRID, err = tx.UpdateRID("users", rids[0], Row{int64(1), "ada", int64(31), true})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	e.View(func(tx *Tx) error {
		if _, err := tx.Get("users", rids[0]); err == nil {
			t.Error("old version still visible")
		}
		row, err := tx.Get("users", newRID)
		if err != nil {
			t.Fatal(err)
		}
		if row[2] != int64(31) {
			t.Errorf("age = %v, want 31", row[2])
		}
		return nil
	})
}

func TestSnapshotIsolation(t *testing.T) {
	e := newTestEngine(t)
	mustInsert(t, e, "users", Row{int64(1), "ada", nil, nil})

	reader := e.Begin()
	defer reader.Rollback()

	writer := e.Begin()
	if _, err := writer.Insert("users", Row{int64(2), "grace", nil, nil}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// The reader began before the writer committed: it must not see the
	// new row.
	n, err := reader.Count("users")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("reader sees %d rows, want 1 (snapshot isolation)", n)
	}

	// A fresh transaction sees both rows.
	e.View(func(tx *Tx) error {
		n, _ := tx.Count("users")
		if n != 2 {
			t.Errorf("fresh tx sees %d rows, want 2", n)
		}
		return nil
	})
}

func TestOwnWritesVisible(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	defer tx.Rollback()
	rid, err := tx.Insert("users", Row{int64(1), "ada", nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("users", rid); err != nil {
		t.Errorf("own insert invisible: %v", err)
	}
	if err := tx.DeleteRID("users", rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("users", rid); err == nil {
		t.Error("own delete still visible")
	}
}

func TestRollbackDiscardsWrites(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	if _, err := tx.Insert("users", Row{int64(1), "ghost", nil, nil}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	e.View(func(tx *Tx) error {
		n, _ := tx.Count("users")
		if n != 0 {
			t.Errorf("rolled-back insert visible: %d rows", n)
		}
		return nil
	})
	// The pk value must be reusable after rollback.
	if err := e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(1), "real", nil, nil})
		return err
	}); err != nil {
		t.Errorf("insert after rollback: %v", err)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	e := newTestEngine(t)
	rids := mustInsert(t, e, "users", Row{int64(1), "ada", nil, nil})

	tx1 := e.Begin()
	tx2 := e.Begin()
	defer tx1.Rollback()
	defer tx2.Rollback()

	if err := tx1.DeleteRID("users", rids[0]); err != nil {
		t.Fatal(err)
	}
	err := tx2.DeleteRID("users", rids[0])
	if !errors.Is(err, ErrConflict) {
		t.Errorf("concurrent delete: %v, want ErrConflict", err)
	}
	// After tx1 aborts, tx2 retried in a fresh transaction succeeds.
	tx1.Rollback()
	if err := e.Update(func(tx *Tx) error { return tx.DeleteRID("users", rids[0]) }); err != nil {
		t.Errorf("delete after abort: %v", err)
	}
}

func TestConcurrentInsertSameKeyConflicts(t *testing.T) {
	e := newTestEngine(t)
	tx1 := e.Begin()
	tx2 := e.Begin()
	defer tx1.Rollback()
	defer tx2.Rollback()
	if _, err := tx1.Insert("users", Row{int64(7), "a", nil, nil}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Insert("users", Row{int64(7), "b", nil, nil}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("concurrent same-key insert: %v, want ErrDuplicate", err)
	}
}

func TestTxDone(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit: %v", err)
	}
	if _, err := tx.Insert("users", Row{int64(1), "x", nil, nil}); !errors.Is(err, ErrTxDone) {
		t.Errorf("insert after commit: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Errorf("rollback after commit should be a no-op: %v", err)
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateIndex(IndexInfo{Name: "users_name", Table: "users", Columns: []string{"name"}, Kind: IndexHash}); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, "users",
		Row{int64(1), "ada", nil, nil},
		Row{int64(2), "grace", nil, nil},
		Row{int64(3), "ada", nil, nil},
	)
	var hits int
	e.View(func(tx *Tx) error {
		return tx.LookupEqual("users", "users_name", []Value{"ada"}, func(RID, Row) bool {
			hits++
			return true
		})
	})
	if hits != 2 {
		t.Errorf("lookup hits = %d, want 2", hits)
	}
}

func TestBTreeIndexRangeScan(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateIndex(IndexInfo{Name: "users_age", Table: "users", Columns: []string{"age"}, Kind: IndexBTree}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		mustInsert(t, e, "users", Row{int64(i), fmt.Sprintf("u%d", i), int64(i * 2), nil})
	}
	var ages []int64
	e.View(func(tx *Tx) error {
		return tx.ScanRange("users", "users_age", []Value{int64(20)}, []Value{int64(30)}, func(_ RID, row Row) bool {
			ages = append(ages, row[2].(int64))
			return true
		})
	})
	if len(ages) != 5 {
		t.Fatalf("range [20,30) returned %d rows: %v", len(ages), ages)
	}
	for i, a := range ages {
		if a < 20 || a >= 30 {
			t.Errorf("age %d out of range", a)
		}
		if i > 0 && ages[i-1] > a {
			t.Error("range scan not ordered")
		}
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	e := newTestEngine(t)
	mustInsert(t, e, "users", Row{int64(1), "ada", nil, nil}, Row{int64(2), "ada", nil, nil})
	err := e.CreateIndex(IndexInfo{Name: "users_name_u", Table: "users", Columns: []string{"name"}, Unique: true, Kind: IndexBTree})
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("unique index over duplicates: %v", err)
	}
	if err := e.Update(func(tx *Tx) error {
		return tx.Scan("users", func(rid RID, row Row) bool {
			if row[0] == int64(2) {
				tx.DeleteRID("users", rid)
			}
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(IndexInfo{Name: "users_name_u", Table: "users", Columns: []string{"name"}, Unique: true, Kind: IndexBTree}); err != nil {
		t.Fatalf("unique index after dedup: %v", err)
	}
	err = e.Update(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{int64(9), "ada", nil, nil})
		return err
	})
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("unique secondary violation: %v", err)
	}
}

func TestDropTableAndIndex(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateIndex(IndexInfo{Name: "ix", Table: "users", Columns: []string{"name"}, Kind: IndexHash}); err != nil {
		t.Fatal(err)
	}
	if err := e.DropIndex("users", "users_pkey"); err == nil {
		t.Error("dropping pk index should fail")
	}
	if err := e.DropIndex("users", "ix"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropIndex("users", "ix"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("double drop: %v", err)
	}
	if err := e.DropTable("users"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropTable("users"); !errors.Is(err, ErrNoTable) {
		t.Errorf("double drop table: %v", err)
	}
}

func TestSequences(t *testing.T) {
	e := newTestEngine(t)
	a, _ := e.NextSequence("s")
	b, _ := e.NextSequence("s")
	c, _ := e.NextSequence("other")
	if a != 1 || b != 2 || c != 1 {
		t.Errorf("sequence values: %d %d %d", a, b, c)
	}
	if v := e.SequenceValue("s"); v != 2 {
		t.Errorf("SequenceValue = %d", v)
	}
}

func TestStats(t *testing.T) {
	e := newTestEngine(t)
	mustInsert(t, e, "users", Row{int64(1), "a", nil, nil}, Row{int64(2), "b", nil, nil})
	st := e.Stats()
	if st.Tables != 1 || st.Rows != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Writes == 0 {
		t.Error("writes counter not advancing")
	}
}

func TestConcurrentWritersDistinctKeys(t *testing.T) {
	e := newTestEngine(t)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := int64(w*per + i)
				err := e.Update(func(tx *Tx) error {
					_, err := tx.Insert("users", Row{id, fmt.Sprintf("u%d", id), nil, nil})
					return err
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.View(func(tx *Tx) error {
		n, _ := tx.Count("users")
		if n != workers*per {
			t.Errorf("count = %d, want %d", n, workers*per)
		}
		return nil
	})
}

func TestClosedEngine(t *testing.T) {
	e := MustOpenMemory()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
	if err := e.CreateTable(usersSchema(t)); !errors.Is(err, ErrClosed) {
		t.Errorf("create on closed engine: %v", err)
	}
}

// TestConcurrentMixedWorkloadWithVacuum hammers one engine with
// concurrent readers, writers (insert/update/delete with retry on
// conflict), and explicit vacuums — the shape of real multi-tenant
// service traffic. Run with -race to validate the locking.
func TestConcurrentMixedWorkloadWithVacuum(t *testing.T) {
	e := newTestEngine(t)
	const writers, readers, iters = 4, 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := int64(w*1000 + i%40) // overlapping key space
				err := e.Update(func(tx *Tx) error {
					var rid RID
					found := false
					tx.LookupEqual("users", "users_pkey", []Value{id}, func(r RID, _ Row) bool {
						rid, found = r, true
						return false
					})
					if !found {
						_, err := tx.Insert("users", Row{id, fmt.Sprintf("u%d", id), int64(i), true})
						return err
					}
					if i%3 == 0 {
						return tx.DeleteRID("users", rid)
					}
					_, err := tx.UpdateRID("users", rid, Row{id, fmt.Sprintf("u%d", id), int64(i), true})
					return err
				})
				// Conflicts and duplicate keys are expected under
				// contention; everything else is a bug.
				if err != nil && !errors.Is(err, ErrConflict) && !errors.Is(err, ErrDuplicate) &&
					!errors.Is(err, ErrRowNotVisible) && !errors.Is(err, ErrNoRow) {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := e.View(func(tx *Tx) error {
					_, err := tx.Count("users")
					return err
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			e.Vacuum() // usually refused while txs are active; must be safe
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The engine must still be coherent: scan count equals pk index count.
	e.View(func(tx *Tx) error {
		scan := 0
		tx.Scan("users", func(RID, Row) bool { scan++; return true })
		viaPK := 0
		tx.ScanRange("users", "users_pkey", nil, nil, func(RID, Row) bool { viaPK++; return true })
		if scan != viaPK {
			t.Errorf("scan=%d pk=%d after stress", scan, viaPK)
		}
		return nil
	})
}

// TestScanVisibilityAcrossTransactionRuns: a scan remembers the status of
// the last transaction it looked up, so versions from committed, aborted,
// in-flight and later transactions are interleaved here in runs and one
// by one; each reader must see exactly what its snapshot allows.
func TestScanVisibilityAcrossTransactionRuns(t *testing.T) {
	e := newTestEngine(t)
	next := int64(0)
	insert := func(tx *Tx, n int) []int64 {
		var ids []int64
		for i := 0; i < n; i++ {
			next++
			if _, err := tx.Insert("users", Row{next, "u", nil, true}); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, next)
		}
		return ids
	}
	commit := func(tx *Tx) {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(tx *Tx) []int64 {
		var got []int64
		if err := tx.Scan("users", func(_ RID, r Row) bool {
			got = append(got, r[0].(int64))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	a := e.Begin()
	committed := insert(a, 3)
	commit(a)
	b := e.Begin()
	insert(b, 2)
	if err := b.Rollback(); err != nil {
		t.Fatal(err)
	}
	open := e.Begin() // in flight when the first reader starts
	late := insert(open, 2)
	c := e.Begin()
	committed = append(committed, insert(c, 1)...)
	commit(c)

	reader := e.Begin()
	defer reader.Rollback()
	d := e.Begin() // commits after the reader's snapshot
	late = append(late, insert(d, 2)...)
	commit(d)
	if got := scan(reader); fmt.Sprint(got) != fmt.Sprint(committed) {
		t.Errorf("reader sees %v, want %v", got, committed)
	}
	commit(open)
	after := e.Begin()
	defer after.Rollback()
	want := append(append([]int64(nil), committed[:3]...), late[0], late[1], committed[3], late[2], late[3])
	if got := scan(after); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("later reader sees %v, want %v", got, want)
	}
}
