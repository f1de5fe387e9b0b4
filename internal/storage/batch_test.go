package storage

import (
	"context"
	"errors"
	"testing"
)

// TestScanBatchesStreamsSnapshot: batches arrive in insertion order, at
// most size rows each, and the row set is pinned when ScanBatches is
// called — rows the callback inserts through the same transaction are
// not visited (same snapshot rule as Scan).
func TestScanBatchesStreamsSnapshot(t *testing.T) {
	e := newTestEngine(t)
	rows := make([]Row, 0, 10)
	for i := 0; i < 10; i++ {
		rows = append(rows, Row{int64(i), "u", int64(20 + i), true})
	}
	mustInsert(t, e, "users", rows...)

	err := e.Update(func(tx *Tx) error {
		var got []int64
		err := tx.ScanBatches("users", 3, func(b *Batch) error {
			if len(b.Cols) != 4 {
				t.Fatalf("batch has %d columns, want 4", len(b.Cols))
			}
			if b.Len() == 0 || b.Len() > 3 {
				t.Fatalf("batch len = %d, want 1..3", b.Len())
			}
			for r := 0; r < b.Len(); r++ {
				got = append(got, b.Cols[0][r].(int64))
			}
			_, err := tx.Insert("users", Row{int64(100 + len(got)), "late", nil, true})
			return err
		})
		if err != nil {
			return err
		}
		if len(got) != 10 {
			t.Fatalf("scanned %d rows, want the 10 visible at call time", len(got))
		}
		for i, id := range got {
			if id != int64(i) {
				t.Fatalf("row %d: id %d (insertion order broken)", i, id)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanBatchesMatchesScan(t *testing.T) {
	e := newTestEngine(t)
	rows := make([]Row, 0, 7)
	for i := 0; i < 7; i++ {
		rows = append(rows, Row{int64(i), "u", nil, true})
	}
	mustInsert(t, e, "users", rows...)

	err := e.View(func(tx *Tx) error {
		if err := tx.ScanBatches("users", 0, func(*Batch) error { return nil }); err == nil {
			t.Fatal("ScanBatches accepted size 0")
		}
		var viaBatch []int64
		if err := tx.ScanBatches("users", 2, func(b *Batch) error {
			for r := 0; r < b.Len(); r++ {
				viaBatch = append(viaBatch, b.Cols[0][r].(int64))
			}
			return nil
		}); err != nil {
			return err
		}
		var viaScan []int64
		if err := tx.Scan("users", func(_ RID, r Row) bool {
			viaScan = append(viaScan, r[0].(int64))
			return true
		}); err != nil {
			return err
		}
		if len(viaBatch) != len(viaScan) {
			t.Fatalf("batch scan saw %d rows, row scan %d", len(viaBatch), len(viaScan))
		}
		for i := range viaBatch {
			if viaBatch[i] != viaScan[i] {
				t.Fatalf("row %d: batch %d vs scan %d", i, viaBatch[i], viaScan[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScanBatchesHonorsCancel: the scan polls the transaction context
// every ctxCheckEvery rows, so a context cancelled during the first
// callback stops the scan before the second.
func TestScanBatchesHonorsCancel(t *testing.T) {
	e := newTestEngine(t)
	rows := make([]Row, 0, 3*ctxCheckEvery)
	for i := 0; i < 3*ctxCheckEvery; i++ {
		rows = append(rows, Row{int64(i), "u", nil, true})
	}
	mustInsert(t, e, "users", rows...)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	err := e.ViewCtx(ctx, func(tx *Tx) error {
		return tx.ScanBatches("users", ctxCheckEvery, func(*Batch) error {
			calls++
			cancel()
			return nil
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after cancellation, want 1", calls)
	}
}

func scanBenchEngine(b *testing.B) *Engine {
	b.Helper()
	e := MustOpenMemory()
	b.Cleanup(func() { e.Close() })
	s, err := NewSchema("vec", []Column{{Name: "id", Type: TypeInt, NotNull: true}, {Name: "v", Type: TypeFloat}}, "id")
	if err != nil {
		b.Fatal(err)
	}
	if err := e.CreateTable(s); err != nil {
		b.Fatal(err)
	}
	err = e.Update(func(tx *Tx) error {
		for i := 0; i < 20000; i++ {
			if _, err := tx.Insert("vec", Row{int64(i), float64(i % 97)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkVectorScan sums one column of 20k rows through ScanBatches
// (the edge olap.Build reads facts through); BenchmarkRowScan does the
// same through Scan. The same-run pair is the cost of transposing rows
// into column slices — the measurement that took Batch out of the SQL
// executor (EXPERIMENTS.md A9).
func BenchmarkVectorScan(b *testing.B) {
	e := scanBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		err := e.View(func(tx *Tx) error {
			return tx.ScanBatches("vec", 256, func(batch *Batch) error {
				col := batch.Cols[1]
				for r := 0; r < batch.Len(); r++ {
					sum += col[r].(float64)
				}
				return nil
			})
		})
		if err != nil {
			b.Fatal(err)
		}
		if sum == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkRowScan(b *testing.B) {
	e := scanBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		err := e.View(func(tx *Tx) error {
			return tx.Scan("vec", func(_ RID, row Row) bool {
				sum += row[1].(float64)
				return true
			})
		})
		if err != nil {
			b.Fatal(err)
		}
		if sum == 0 {
			b.Fatal("empty scan")
		}
	}
}
