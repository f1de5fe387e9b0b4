package storage

import "fmt"

// Batch is a column-major block of rows: Cols[c][r] is column c of row
// r, for r < Len(). It exists for Tx.ScanBatches, the whole-table block
// API of the two callers that read a few columns of every row — the
// OLAP cube build and the benchmark's storage rung. The SQL executor
// does not use it: rows are stored row-major, so it passes references
// to the stored rows instead of transposing them.
type Batch struct {
	// Cols holds one value slice per table column. The values are
	// shared with the storage layer and must not be mutated.
	Cols [][]Value
	n    int
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// ScanBatches visits every visible row of the table in insertion order
// through a reused batch of at most size rows per callback. Like Scan
// it iterates the snapshot taken when it was called and checks the
// transaction context every ctxCheckEvery rows. The batch is only valid
// for the duration of fn; fn must copy anything it keeps.
func (tx *Tx) ScanBatches(tableName string, size int, fn func(*Batch) error) error {
	if size <= 0 {
		return fmt.Errorf("storage: ScanBatches size must be positive, got %d", size)
	}
	matches, err := tx.visibleRows(tableName)
	if err != nil || len(matches) == 0 {
		return err
	}
	b := &Batch{Cols: make([][]Value, len(matches[0].row))}
	for start := 0; start < len(matches); start += size {
		end := min(start+size, len(matches))
		for c := range b.Cols {
			b.Cols[c] = b.Cols[c][:0]
		}
		for i := start; i < end; i++ {
			if err := tx.stepCtx(i); err != nil {
				return err
			}
			for c, v := range matches[i].row {
				b.Cols[c] = append(b.Cols[c], v)
			}
		}
		b.n = end - start
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}
