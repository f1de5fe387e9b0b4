package sql

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

// TestIndexAgreesWithScanBeyond2to53: integers that share a float64
// (|x| > 2^53) and a negative zero must give the same rows through the
// primary key, a B-tree index, a hash index and a forced scan, and those
// rows must be the exact answer.
func TestIndexAgreesWithScanBeyond2to53(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)`)
	mustExec(t, db, `CREATE INDEX t_v ON t (v) USING BTREE`)
	mustExec(t, db, `CREATE INDEX t_w ON t (w) USING HASH`)
	var vals []int64
	for k := int64(-7); k <= 7; k++ {
		vals = append(vals, 1<<53+k, -(1<<53)+k)
	}
	vals = append(vals, math.MaxInt64, math.MaxInt64-1, math.MinInt64, math.MinInt64+1, 1<<62+1, -(1<<62)-1)
	for _, x := range vals {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?)`, x, x, x)
	}

	check := func(q string, want []int64, args ...storage.Value) {
		t.Helper()
		slices.Sort(want)
		db.DisableIndexes = false
		idx := mustExec(t, db, q, args...)
		db.DisableIndexes = true
		scan := mustExec(t, db, q, args...)
		db.DisableIndexes = false
		if idx.Plan == "scan" {
			t.Errorf("%s %v: plan = scan, want an index path", q, args)
		}
		for _, res := range []*Result{idx, scan} {
			var got []int64
			for _, r := range res.Rows {
				got = append(got, r[0].(int64))
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s %v via %s: got %v, want %v", q, args, res.Plan, got, want)
			}
		}
	}
	filter := func(keep func(int64) bool) []int64 {
		var out []int64
		for _, x := range vals {
			if keep(x) {
				out = append(out, x)
			}
		}
		return out
	}

	check(`SELECT id FROM t WHERE id = 9007199254740993`, []int64{9007199254740993})
	check(`SELECT id FROM t WHERE v >= -9007199254740996 AND v < 0`, filter(func(x int64) bool { return x >= -9007199254740996 && x < 0 }))
	for _, x := range vals {
		check(`SELECT id FROM t WHERE id = ?`, []int64{x}, x)
		check(`SELECT id FROM t WHERE v = ?`, []int64{x}, x)
		check(`SELECT id FROM t WHERE w = ?`, []int64{x}, x)
		check(`SELECT id FROM t WHERE v > ?`, filter(func(y int64) bool { return y > x }), x)
		check(`SELECT id FROM t WHERE v < ?`, filter(func(y int64) bool { return y < x }), x)
		check(`SELECT id FROM t WHERE v >= ?`, filter(func(y int64) bool { return y >= x }), x)
	}

	// -0.0 equals 0 under Compare, so it must key as 0 as well.
	mustExec(t, db, `CREATE TABLE z (id INT PRIMARY KEY, f FLOAT)`)
	mustExec(t, db, `CREATE INDEX z_f ON z (f) USING HASH`)
	mustExec(t, db, `INSERT INTO z VALUES (1, ?), (2, 0.0), (3, 1.0)`, math.Copysign(0, -1))
	db.DisableIndexes = false
	idx := mustExec(t, db, `SELECT id FROM z WHERE f = 0 ORDER BY id`)
	db.DisableIndexes = true
	scan := mustExec(t, db, `SELECT id FROM z WHERE f = 0 ORDER BY id`)
	db.DisableIndexes = false
	if got, want := fmt.Sprint(rowsAsStrings(idx)), "[1 2]"; got != want || fmt.Sprint(rowsAsStrings(scan)) != want {
		t.Errorf("f = 0: index %s %v, scan %v, want %s", idx.Plan, got, rowsAsStrings(scan), want)
	}
	if res := mustExec(t, db, `SELECT COUNT(DISTINCT f) FROM z`); res.Rows[0][0] != int64(2) {
		t.Errorf("COUNT(DISTINCT f) over {-0.0, 0.0, 1.0} = %v, want 2", res.Rows[0][0])
	}
}

// TestKeyAllocsFlat: GROUP BY, a hash join and COUNT(DISTINCT) over 1k
// and 16k rows with the same groups allocate the same: per-row keys are
// encoded into a reused buffer and looked up without a string, so only
// new groups and entries allocate.
func TestKeyAllocsFlat(t *testing.T) {
	queries := []string{
		`SELECT g, COUNT(*), SUM(v) FROM k GROUP BY g`,
		`SELECT COUNT(*) FROM k JOIN dept d ON k.g = d.id`,
		`SELECT g, COUNT(DISTINCT v) FROM k GROUP BY g`,
	}
	allocs := func(rows int, q string) float64 {
		e := storage.MustOpenMemory()
		defer e.Close()
		db := NewDB(e)
		mustExec(t, db, `CREATE TABLE dept (id INT PRIMARY KEY, name TEXT)`)
		mustExec(t, db, `INSERT INTO dept VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
		mustExec(t, db, `CREATE TABLE k (id INT PRIMARY KEY, g INT, v INT)`)
		err := e.Update(func(tx *storage.Tx) error {
			for i := 0; i < rows; i++ {
				if _, err := tx.Insert("k", storage.Row{int64(i), int64(i%3 + 1), int64(1000 + i%50)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		return testing.AllocsPerRun(5, func() {
			if _, err := db.QueryContext(ctx, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, q := range queries {
		small, large := allocs(1<<10, q), allocs(1<<14, q)
		t.Logf("%s: %.0f allocs at 1k rows, %.0f at 16k", q, small, large)
		if large-small > 16 {
			t.Errorf("%s: %.0f allocs at 1k rows, %.0f at 16k: allocation grows with row count", q, small, large)
		}
	}
}
