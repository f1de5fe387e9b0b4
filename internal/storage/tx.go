package storage

import (
	"context"
	"fmt"

	"github.com/odbis/odbis/internal/obs"
)

// Tx is a snapshot-isolation transaction. A Tx sees the committed state as
// of Begin plus its own writes. Write-write conflicts surface as
// ErrConflict at the conflicting operation (first-updater-wins); the
// caller should roll back and retry.
//
// A Tx must be finished with exactly one of Commit or Rollback. A Tx is
// not safe for concurrent use by multiple goroutines.
type Tx struct {
	e    *Engine
	id   uint64
	ctx  context.Context
	snap snapshot
	done bool
	ops  []txOp
}

type txOpKind uint8

const (
	opInsert txOpKind = iota
	opDelete
)

type txOp struct {
	kind  txOpKind
	table string
	rid   RID
	row   Row // opInsert only
}

// Begin starts a new transaction bound to the background context.
func (e *Engine) Begin() *Tx {
	return e.BeginCtx(context.Background())
}

// BeginCtx starts a new transaction whose scans observe ctx: once ctx is
// cancelled or past its deadline, row iteration stops at the next
// checkpoint and the ctx error surfaces from the scan.
func (e *Engine) BeginCtx(ctx context.Context) *Tx {
	e.txMu.Lock()
	id := e.nextTxID.Add(1) - 1
	e.txActive[id] = true
	snap := e.takeSnapshotTxLocked()
	delete(snap.active, id) // we are not concurrent with ourselves
	e.txMu.Unlock()
	return &Tx{e: e, id: id, ctx: ctx, snap: snap}
}

// View runs fn inside a read-only transaction that is always rolled back.
func (e *Engine) View(fn func(tx *Tx) error) error {
	return e.ViewCtx(context.Background(), fn)
}

// ViewCtx is View with a cancellable transaction context.
func (e *Engine) ViewCtx(ctx context.Context, fn func(tx *Tx) error) error {
	ctx, span := obs.StartSpan(ctx, "storage.view")
	defer span.End()
	tx := e.BeginCtx(ctx)
	defer tx.Rollback()
	return fn(tx)
}

// Update runs fn inside a transaction, committing on nil error and
// rolling back otherwise.
func (e *Engine) Update(fn func(tx *Tx) error) error {
	return e.UpdateCtx(context.Background(), fn)
}

// UpdateCtx is Update with a cancellable transaction context. A context
// cancelled before commit rolls the transaction back, so partial work
// from an abandoned request never becomes visible. The rollback is
// guaranteed even when fn panics (Rollback after Commit is a no-op):
// the server's panic-recovery middleware relies on this to keep a
// panicking handler from stranding an active transaction.
func (e *Engine) UpdateCtx(ctx context.Context, fn func(tx *Tx) error) error {
	ctx, span := obs.StartSpan(ctx, "storage.update")
	defer span.End()
	tx := e.BeginCtx(ctx)
	defer tx.Rollback()
	if err := fn(tx); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return tx.Commit()
}

// Context returns the context the transaction was started with.
func (tx *Tx) Context() context.Context {
	if tx.ctx == nil {
		return context.Background()
	}
	return tx.ctx
}

// ctxCheckEvery is the row granularity of cooperative-cancellation
// checkpoints in scans: coarse enough to stay off profiles, fine enough
// that a cancelled request stops within a few dozen rows.
const ctxCheckEvery = 64

// stepCtx is the per-row checkpoint used by the scan loops. i is the row
// ordinal; only every ctxCheckEvery-th row pays for the ctx.Err call.
func (tx *Tx) stepCtx(i int) error {
	if tx.ctx == nil || i%ctxCheckEvery != 0 {
		return nil
	}
	return tx.ctx.Err()
}

// ID returns the transaction id (useful in tests and logs).
func (tx *Tx) ID() uint64 { return tx.id }

func (tx *Tx) check() error {
	if tx.done {
		return ErrTxDone
	}
	return nil
}

// Insert adds a row (positional, aligned with the schema) and returns its
// stable RID.
func (tx *Tx) Insert(tableName string, row Row) (RID, error) {
	if err := tx.check(); err != nil {
		return 0, err
	}
	t, err := tx.e.getTable(tableName)
	if err != nil {
		return 0, err
	}
	checked, err := t.schema.CheckRow(row)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Unique-index enforcement: a key conflicts when any version with the
	// same key is live (not deleted) and was created by a committed or
	// still-active transaction.
	var buf [64]byte
	for _, ix := range t.indexes {
		if !ix.info.Unique {
			continue
		}
		for _, id := range ix.lookup(ix.appendKey(buf[:0], checked)) {
			v := &t.versions[id]
			if tx.aliveForUnique(v) {
				return 0, fmt.Errorf("%w: index %s key %v", ErrDuplicate, ix.info.Name, describeKey(ix, checked))
			}
		}
	}
	rid := RID(tx.e.nextRID.Add(1) - 1)
	t.add(version{rid: rid, row: checked, xmin: tx.id})
	tx.ops = append(tx.ops, txOp{kind: opInsert, table: t.schema.Name, rid: rid, row: checked})
	tx.e.statsWrites.Add(1)
	return rid, nil
}

// aliveForUnique reports whether a version should block a same-key insert:
// it is not yet deleted by any committed or in-flight transaction, and its
// creator is committed, in flight, or us.
func (tx *Tx) aliveForUnique(v *version) bool {
	e := tx.e
	if v.xmin != 0 && v.xmin != tx.id && e.statusOf(v.xmin) == txAborted {
		return false
	}
	if v.xmax == 0 {
		return true
	}
	if v.xmax == tx.id {
		return false // we deleted it ourselves
	}
	st := e.statusOf(v.xmax)
	// Deleted by a committed tx: dead. Deleted by an active tx: still
	// blocking (the delete may abort). Aborted delete: alive.
	return st != txCommitted
}

func describeKey(ix *index, row Row) []Value {
	vals := make([]Value, len(ix.cols))
	for i, c := range ix.cols {
		vals[i] = row[c]
	}
	return vals
}

// InsertMap adds a row from a column→value map, applying schema defaults.
func (tx *Tx) InsertMap(tableName string, m map[string]Value) (RID, error) {
	if err := tx.check(); err != nil {
		return 0, err
	}
	t, err := tx.e.getTable(tableName)
	if err != nil {
		return 0, err
	}
	row, err := t.schema.RowFromMap(m)
	if err != nil {
		return 0, err
	}
	return tx.Insert(tableName, row)
}

// DeleteRID deletes the row with the given RID. It returns ErrNoRow when
// the RID does not exist or is not visible, and ErrConflict when a
// concurrent transaction already deleted it.
func (tx *Tx) DeleteRID(tableName string, rid RID) error {
	if err := tx.check(); err != nil {
		return err
	}
	t, err := tx.e.getTable(tableName)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return tx.deleteLocked(t, rid)
}

func (tx *Tx) deleteLocked(t *table, rid RID) error {
	slot, ok := t.byRID[rid]
	if !ok {
		return fmt.Errorf("%w: rid %d in %s", ErrNoRow, rid, t.schema.Name)
	}
	v := &t.versions[slot]
	var memo statusMemo
	if !tx.e.visible(v, tx.snap, tx.id, &memo) {
		return fmt.Errorf("%w: rid %d in %s", ErrRowNotVisible, rid, t.schema.Name)
	}
	if v.xmax != 0 && v.xmax != tx.id {
		switch tx.e.statusOf(v.xmax) {
		case txAborted:
			// The previous deleter aborted; we may take over the slot.
		default:
			// Active or committed-after-our-snapshot deleter: first
			// updater wins.
			return fmt.Errorf("%w: rid %d in %s", ErrConflict, rid, t.schema.Name)
		}
	}
	v.xmax = tx.id
	tx.ops = append(tx.ops, txOp{kind: opDelete, table: t.schema.Name, rid: rid})
	tx.e.statsWrites.Add(1)
	return nil
}

// UpdateRID replaces the row identified by rid with newRow, returning the
// RID of the new version.
func (tx *Tx) UpdateRID(tableName string, rid RID, newRow Row) (RID, error) {
	if err := tx.check(); err != nil {
		return 0, err
	}
	if err := tx.DeleteRID(tableName, rid); err != nil {
		return 0, err
	}
	return tx.Insert(tableName, newRow)
}

// Get returns the visible row with the given RID.
func (tx *Tx) Get(tableName string, rid RID) (Row, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	t, err := tx.e.getTable(tableName)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, ok := t.byRID[rid]
	if !ok {
		return nil, fmt.Errorf("%w: rid %d in %s", ErrNoRow, rid, tableName)
	}
	v := &t.versions[slot]
	var memo statusMemo
	if !tx.e.visible(v, tx.snap, tx.id, &memo) {
		return nil, fmt.Errorf("%w: rid %d in %s", ErrRowNotVisible, rid, tableName)
	}
	tx.e.statsReads.Add(1)
	return v.row.Clone(), nil
}

// match is a materialized (rid, row) pair captured under the table lock.
type match struct {
	rid RID
	row Row
}

// collectVisible gathers the transaction-visible rows among the index
// hits pick returns, while holding the table read lock. Callbacks then
// run unlocked, so scan bodies may freely mutate the same table
// (scan-and-delete patterns).
func (tx *Tx) collectVisible(t *table, pick func() []rowID) []match {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids := pick()
	out := make([]match, 0, len(ids))
	var memo statusMemo
	for _, id := range ids {
		v := &t.versions[id]
		if tx.e.visible(v, tx.snap, tx.id, &memo) {
			out = append(out, match{rid: v.rid, row: v.row})
		}
	}
	return out
}

// visibleRows is the one whole-table walk: every transaction-visible
// row of the table in insertion order, captured under the table read
// lock. Scan, ScanBatches and (through Scan) Count iterate its result
// unlocked, which is what pins their snapshot at call time.
func (tx *Tx) visibleRows(tableName string) ([]match, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	t, err := tx.e.getTable(tableName)
	if err != nil {
		return nil, err
	}
	tx.e.statsReads.Add(1)
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]match, 0, len(t.versions))
	var memo statusMemo
	for i := range t.versions {
		v := &t.versions[i]
		if tx.e.visible(v, tx.snap, tx.id, &memo) {
			out = append(out, match{rid: v.rid, row: v.row})
		}
	}
	return out, nil
}

// Scan visits every visible row of the table in insertion order. fn
// returning false stops the scan. The row passed to fn is shared; fn must
// not modify it (Clone when keeping a mutable copy). fn may mutate the
// table through the same transaction: the scan iterates the snapshot
// taken when Scan was called.
func (tx *Tx) Scan(tableName string, fn func(rid RID, row Row) bool) error {
	matches, err := tx.visibleRows(tableName)
	if err != nil {
		return err
	}
	for i, m := range matches {
		if err := tx.stepCtx(i); err != nil {
			return err
		}
		if !fn(m.rid, m.row) {
			return nil
		}
	}
	return nil
}

// LookupEqual visits visible rows whose indexed columns equal key, via the
// named index.
func (tx *Tx) LookupEqual(tableName, indexName string, key []Value, fn func(rid RID, row Row) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	t, err := tx.e.getTable(tableName)
	if err != nil {
		return err
	}
	t.mu.RLock()
	ix, ok := t.indexes[lowerName(indexName)]
	if !ok {
		t.mu.RUnlock()
		return fmt.Errorf("%w: %s on %s", ErrNoIndex, indexName, tableName)
	}
	if len(key) != len(ix.cols) {
		t.mu.RUnlock()
		return fmt.Errorf("storage: index %s expects %d key values, got %d", indexName, len(ix.cols), len(key))
	}
	t.mu.RUnlock()
	tx.e.statsReads.Add(1)
	var buf [64]byte
	probe := AppendKey(buf[:0], key...)
	matches := tx.collectVisible(t, func() []rowID {
		return ix.lookup(probe)
	})
	for i, m := range matches {
		if err := tx.stepCtx(i); err != nil {
			return err
		}
		if !fn(m.rid, m.row) {
			return nil
		}
	}
	return nil
}

// ScanRange visits visible rows whose indexed key is in [lo, hi) in key
// order, via a B-tree index. Nil lo means unbounded below; nil hi means
// unbounded above. Prefix keys (fewer values than index columns) are
// allowed.
func (tx *Tx) ScanRange(tableName, indexName string, lo, hi []Value, fn func(rid RID, row Row) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	t, err := tx.e.getTable(tableName)
	if err != nil {
		return err
	}
	t.mu.RLock()
	ix, ok := t.indexes[lowerName(indexName)]
	if !ok {
		t.mu.RUnlock()
		return fmt.Errorf("%w: %s on %s", ErrNoIndex, indexName, tableName)
	}
	if ix.tree == nil {
		t.mu.RUnlock()
		return fmt.Errorf("storage: index %s is a hash index; range scans need a btree index", indexName)
	}
	t.mu.RUnlock()
	var loKey, hiKey string
	if len(lo) > 0 {
		loKey = EncodeKey(lo...)
	}
	if len(hi) > 0 {
		hiKey = EncodeKey(hi...)
	}
	tx.e.statsReads.Add(1)
	matches := tx.collectVisible(t, func() []rowID {
		var all []rowID
		ix.tree.Range(loKey, hiKey, func(_ string, ids []rowID) bool {
			all = append(all, ids...)
			return true
		})
		return all
	})
	for i, m := range matches {
		if err := tx.stepCtx(i); err != nil {
			return err
		}
		if !fn(m.rid, m.row) {
			return nil
		}
	}
	return nil
}

// Count returns the number of visible rows in the table.
func (tx *Tx) Count(tableName string) (int, error) {
	n := 0
	err := tx.Scan(tableName, func(RID, Row) bool { n++; return true })
	return n, err
}

// Commit makes the transaction's writes durable and visible.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	e := tx.e
	if len(tx.ops) == 0 {
		e.finishTx(tx.id, txCommitted)
		return nil
	}
	var r redo = commit{txid: tx.id, ops: tx.ops}
	payload, n, err := e.logRecord(r)
	if err != nil {
		// Could not make the transaction durable: abort it so memory
		// state matches the log.
		e.finishTx(tx.id, txAborted)
		e.noteDead(tx.ops, txAborted)
		return fmt.Errorf("storage: commit: %w", err)
	}
	if n > 0 && tx.ctx != nil {
		obs.AddTenant(tx.ctx, obs.TenantBytesWritten, int64(n))
	}
	// The visibility flip and the replication ship are atomic under
	// tap.mu so a WAL subscriber registering concurrently sees this
	// commit exactly once: either the flip lands first (the commit is in
	// any state dump taken after registration) or the ship does (the
	// frame arrives on the already-registered channel). See ship.go.
	e.tap.mu.Lock()
	e.finishTx(tx.id, txCommitted)
	e.tap.shipLocked(r, payload)
	e.tap.mu.Unlock()
	e.noteDead(tx.ops, txCommitted)
	return nil
}

// Rollback abandons the transaction. Rolling back a finished transaction
// is a no-op.
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	tx.e.finishTx(tx.id, txAborted)
	tx.e.noteDead(tx.ops, txAborted)
	return nil
}

func (e *Engine) finishTx(id uint64, st txStatus) {
	e.txMu.Lock()
	delete(e.txActive, id)
	if st == txAborted {
		// Aborted ids must stay resolvable until vacuum rewrites the
		// versions that reference them.
		e.txAborted[id] = true
	}
	e.txMu.Unlock()
}

// noteDead bumps per-table dead counters after a finished transaction and
// triggers an opportunistic vacuum for tables that accumulated many dead
// versions. Only a committed delete or an aborted insert strands a
// version; committed inserts are live and must not count (bulk loads
// would otherwise thrash the vacuum).
func (e *Engine) noteDead(ops []txOp, outcome txStatus) {
	counts := map[string]int{}
	for _, op := range ops {
		dead := (outcome == txCommitted && op.kind == opDelete) ||
			(outcome == txAborted && op.kind == opInsert)
		if dead {
			counts[lowerName(op.table)]++
		}
	}
	vacuumNames := make([]string, 0, len(counts))
	e.mu.RLock()
	for name, n := range counts {
		if t, ok := e.tables[name]; ok {
			t.mu.Lock()
			t.dead += n
			if t.dead >= vacuumThreshold {
				vacuumNames = append(vacuumNames, name)
			}
			t.mu.Unlock()
		}
	}
	e.mu.RUnlock()
	for _, name := range vacuumNames {
		e.maybeVacuumTable(name)
	}
}
