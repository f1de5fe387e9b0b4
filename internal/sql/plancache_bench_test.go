package sql

import (
	"context"
	"fmt"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

// BenchmarkPlanCacheHit measures the steady-state read path: the text
// is cached and fresh, so each iteration is one LRU lookup plus plan
// execution — no lexer, parser, or planner work.
func BenchmarkPlanCacheHit(b *testing.B) {
	db := bigJoinDB(b, 1000)
	q := "SELECT SUM(v) FROM big WHERE dept_id = 1"
	if _, err := db.QueryContext(context.Background(), q); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheMiss is the same query with caching disabled:
// every iteration pays parse + plan before executing. The delta
// against BenchmarkPlanCacheHit is what the cache saves per request.
func BenchmarkPlanCacheMiss(b *testing.B) {
	SetPlanCacheEnabled(false)
	defer SetPlanCacheEnabled(true)
	db := bigJoinDB(b, 1000)
	q := "SELECT SUM(v) FROM big WHERE dept_id = 1"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

const vecScanRows = 20000

func vecScanDB(b *testing.B) *DB {
	b.Helper()
	db := newTestDB(b)
	mustExec(b, db, `CREATE TABLE vec (id INT PRIMARY KEY, v FLOAT)`)
	err := db.Engine.Update(func(tx *storage.Tx) error {
		for i := 0; i < vecScanRows; i++ {
			if _, err := tx.Insert("vec", storage.Row{int64(i), float64(i % 97)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkVectorQuery_SumScan is the end-to-end SQL aggregate over
// the 20k-row table storage's BenchmarkRowScan/BenchmarkVectorScan
// walk — the number the Figure 4 SQL-layer budget tracks.
func BenchmarkVectorQuery_SumScan(b *testing.B) {
	db := vecScanDB(b)
	q := "SELECT SUM(v) FROM vec"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryContext(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkPlanCacheHitParallel checks the cache under contention:
// many goroutines re-running the same dashboard query must not
// serialize on the cache mutex beyond the lookup itself.
func BenchmarkPlanCacheHitParallel(b *testing.B) {
	db := bigJoinDB(b, 1000)
	queries := make([]string, 8)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT SUM(v) FROM big WHERE dept_id = %d", i%3+1)
		if _, err := db.QueryContext(context.Background(), queries[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := db.QueryContext(context.Background(), queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
