package storage

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/odbis/odbis/internal/fault"
)

// The redo record: the one format the WAL stores, crash recovery replays
// and the frame tap ships to replicas. This file owns it — each kind has
// one encode and one apply method here, and decodeRecord is the only
// decoder — so a recovered primary and a replica are built by the same
// code from the same bytes.
//
// Live mutations reach the same methods. Engine.CreateTable, DropTable,
// CreateIndex and DropIndex run their kind's apply with the write-ahead
// step (autoCommit: encode, WAL append, install, ship); NextSequence and
// Tx.Commit, whose change is in memory before it is logged, encode their
// record once and hand the bytes to the WAL and the tap. Replay —
// recovery and replicas, through ApplyReplicated — runs apply with a step
// that only installs.

// Record kinds: the first byte of a payload.
const (
	recCreateTable byte = 'T'
	recDropTable   byte = 'D'
	recCreateIndex byte = 'I'
	recDropIndex   byte = 'X'
	recSequence    byte = 'S'
	recCommit      byte = 'C'
)

// ErrBadFrame reports a payload that is not a redo record — a torn or
// corrupt stream, or a WAL frame damaged in a way its CRC did not catch.
// A replica must stop applying and re-bootstrap; recovery refuses to open.
var ErrBadFrame = errors.New("storage: corrupt replication frame")

// redo is one redo record.
type redo interface {
	// encode writes the payload: the kind byte, then the kind's fields.
	encode(enc *encoder)
	// apply checks that the record applies to the engine's present state
	// and hands its change to next, all under the locks the kind needs.
	// A record that does not apply returns the error the live call
	// documents (ErrTableExists, ErrNoIndex, …) and changes nothing.
	apply(e *Engine, next step) error
}

// step is how apply hands over a change that has proved applicable.
// install makes it visible. refuse, nil for most kinds, is a condition
// only the engine that originates the mutation may enforce: a replayed
// record was accepted by its primary and is rebuilt whatever the local
// state says. Both run under the locks apply holds.
type step func(refuse func() error, install func()) error

// replay is the step of recovery and replicas: install, nothing else.
func replay(_ func() error, install func()) error {
	install()
	return nil
}

// encodeRecord returns r's payload.
func encodeRecord(r redo) ([]byte, error) {
	var buf bytes.Buffer
	enc := newEncoder(&buf)
	r.encode(enc)
	if err := enc.flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeRecord decodes a whole payload before anything is applied. It
// accepts exactly what encodeRecord writes: a payload with a truncated
// field, trailing bytes or a non-minimal encoding is ErrBadFrame.
func decodeRecord(payload []byte) (redo, error) {
	dec := newDecoder(payload)
	var r redo
	switch kind := dec.byte(); kind {
	case recCreateTable:
		r = createTable{schema: dec.schema()}
	case recDropTable:
		r = dropTable{name: dec.str()}
	case recCreateIndex:
		r = createIndex{info: decodeIndexInfo(dec)}
	case recDropIndex:
		r = dropIndex{table: dec.str(), name: dec.str()}
	case recSequence:
		r = sequenceBump{name: dec.str(), value: dec.varint()}
	case recCommit:
		r = decodeCommit(dec)
	default:
		return nil, fmt.Errorf("%w: unknown record type %q", ErrBadFrame, kind)
	}
	if dec.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, dec.err)
	}
	if again, err := encodeRecord(r); err != nil || !bytes.Equal(again, payload) {
		return nil, fmt.Errorf("%w: not the encoding of the record it decodes to", ErrBadFrame)
	}
	return r, nil
}

// ApplyReplicated applies one redo payload to this engine: it is how WAL
// replay rebuilds a primary and how a replica follows one. Payloads must
// be applied in log order by a single goroutine; readers may run
// concurrently. Apply is idempotent — bootstrap overlap means the first
// frames after a state dump may describe mutations the dump already
// contains, and a record whose table or index is already there, or
// already gone, is governed by the later record that made it so — and
// atomic per record: a commit's rows become visible all at once or (on a
// mid-record failure) never. A payload that does not decode
// (ErrBadFrame) touches nothing.
func (e *Engine) ApplyReplicated(payload []byte) error {
	r, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	err = r.apply(e, replay)
	if errors.Is(err, ErrTableExists) || errors.Is(err, ErrNoTable) ||
		errors.Is(err, ErrIndexExists) || errors.Is(err, ErrNoIndex) {
		return nil
	}
	return err
}

// autoCommit runs a live DDL record in write-ahead order: apply proves
// it applicable, then the record is encoded and appended to the WAL
// before memory changes — a failed append leaves the engine and its
// replicas untouched — and the same bytes are shipped while apply still
// holds the kind's lock, so ship order is install order.
func (e *Engine) autoCommit(r redo) error {
	return r.apply(e, func(refuse func() error, install func()) error {
		if refuse != nil {
			if err := refuse(); err != nil {
				return err
			}
		}
		payload, _, err := e.logRecord(r)
		if err != nil {
			return err
		}
		install()
		e.ship(r, payload)
		return nil
	})
}

// logRecord appends r to the WAL of a durable engine and returns the
// payload, for the tap to ship, and the framed size. An in-memory engine
// encodes nothing here (the tap does, if anyone is subscribed).
func (e *Engine) logRecord(r redo) (payload []byte, framed int, err error) {
	if e.wal == nil {
		return nil, 0, nil
	}
	if payload, err = encodeRecord(r); err != nil {
		return nil, 0, err
	}
	framed, err = e.wal.append(payload)
	return payload, framed, err
}

type createTable struct{ schema *Schema }

func (r createTable) encode(enc *encoder) {
	enc.byte(recCreateTable)
	enc.schema(r.schema)
}

func (r createTable) apply(e *Engine, next step) error {
	if err := r.schema.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	key := lowerName(r.schema.Name)
	if _, ok := e.tables[key]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, r.schema.Name)
	}
	return next(nil, func() {
		e.tables[key] = e.newTable(r.schema, nil, nil)
		e.schemaEpoch.Add(1)
	})
}

// newTable builds the table for s over the given versions (none for a
// new table, the decoded rows for a restored one), with the implicit
// <name>_pkey index when s declares a primary key and then the given
// secondary indexes.
func (e *Engine) newTable(s *Schema, versions []version, secondary []IndexInfo) *table {
	t := &table{schema: s, versions: versions, byRID: make(map[RID]rowID, len(versions)), indexes: make(map[string]*index)}
	for i := range versions {
		t.byRID[versions[i].rid] = rowID(i)
	}
	if len(s.PrimaryKey) > 0 {
		t.pkIndex = e.buildIndex(t, IndexInfo{
			Name:    s.Name + "_pkey",
			Table:   s.Name,
			Columns: append([]string(nil), s.PrimaryKey...),
			Unique:  true,
			Kind:    IndexBTree,
		})
		t.indexes[lowerName(t.pkIndex.info.Name)] = t.pkIndex
	}
	for _, info := range secondary {
		t.indexes[lowerName(info.Name)] = e.buildIndex(t, info)
	}
	return t
}

type dropTable struct{ name string }

func (r dropTable) encode(enc *encoder) {
	enc.byte(recDropTable)
	enc.str(r.name)
}

func (r dropTable) apply(e *Engine, next step) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	key := lowerName(r.name)
	if _, ok := e.tables[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, r.name)
	}
	return next(nil, func() {
		delete(e.tables, key)
		e.schemaEpoch.Add(1)
	})
}

type createIndex struct{ info IndexInfo }

func (r createIndex) encode(enc *encoder) {
	enc.byte(recCreateIndex)
	encodeIndexInfo(enc, r.info)
}

func (r createIndex) apply(e *Engine, next step) error {
	info := r.info
	t, err := e.getTable(info.Table)
	if err != nil {
		return err
	}
	if !ValidIdent(info.Name) {
		return fmt.Errorf("storage: invalid index name %q", info.Name)
	}
	if info.Kind != IndexHash && info.Kind != IndexBTree {
		return fmt.Errorf("storage: index %s: unknown index kind %d", info.Name, info.Kind)
	}
	for _, c := range info.Columns {
		if _, ok := t.schema.ColumnIndex(c); !ok {
			return fmt.Errorf("storage: index %s: no column %q in table %s", info.Name, c, info.Table)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := lowerName(info.Name)
	if _, ok := t.indexes[key]; ok {
		return fmt.Errorf("%w: %s", ErrIndexExists, info.Name)
	}
	ix := e.buildIndex(t, info)
	unique := func() error {
		if info.Unique && e.hasDuplicateKey(t, ix) {
			return fmt.Errorf("%w: existing rows violate unique index %s", ErrDuplicate, info.Name)
		}
		return nil
	}
	return next(unique, func() {
		t.indexes[key] = ix
		e.schemaEpoch.Add(1)
	})
}

// hasDuplicateKey reports whether two committed-visible rows of t share
// a key of ix (caller holds t.mu).
func (e *Engine) hasDuplicateKey(t *table, ix *index) bool {
	snap := e.takeSnapshot()
	dup := false
	unique := func(_ string, ids []rowID) bool {
		live := 0
		for _, id := range ids {
			if e.visible(&t.versions[id], snap, 0) {
				live++
			}
		}
		dup = live > 1
		return !dup
	}
	if ix.tree != nil {
		ix.tree.Ascend(unique)
		return dup
	}
	for key, ids := range ix.hash {
		if !unique(key, ids) {
			break
		}
	}
	return dup
}

type dropIndex struct{ table, name string }

func (r dropIndex) encode(enc *encoder) {
	enc.byte(recDropIndex)
	enc.str(r.table)
	enc.str(r.name)
}

func (r dropIndex) apply(e *Engine, next step) error {
	t, err := e.getTable(r.table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := lowerName(r.name)
	ix, ok := t.indexes[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoIndex, r.name)
	}
	if ix == t.pkIndex {
		return fmt.Errorf("storage: cannot drop primary key index %s", r.name)
	}
	return next(nil, func() {
		delete(t.indexes, key)
		e.schemaEpoch.Add(1)
	})
}

type sequenceBump struct {
	name  string
	value int64
}

func (r sequenceBump) encode(enc *encoder) {
	enc.byte(recSequence)
	enc.str(r.name)
	enc.varint(r.value)
}

// apply max-merges the value, so a bump replays idempotently and two
// bumps logged out of order converge.
func (r sequenceBump) apply(e *Engine, next step) error {
	return next(nil, func() {
		e.seqMu.Lock()
		if r.value > e.seqs[r.name] {
			e.seqs[r.name] = r.value
		}
		e.seqMu.Unlock()
	})
}

// commit is one committed transaction: the primary's transaction id
// (informational, see apply) and its writes in execution order.
type commit struct {
	txid uint64
	ops  []txOp
}

func (r commit) encode(enc *encoder) {
	enc.byte(recCommit)
	enc.uvarint(r.txid)
	enc.uvarint(uint64(len(r.ops)))
	for _, op := range r.ops {
		enc.byte(byte(op.kind))
		enc.str(op.table)
		enc.uvarint(uint64(op.rid))
		if op.kind == opInsert {
			enc.row(op.row)
		}
	}
}

func decodeCommit(dec *decoder) commit {
	r := commit{txid: dec.uvarint()}
	nops := dec.length()
	r.ops = make([]txOp, 0, nops)
	for i := uint64(0); i < nops && dec.err == nil; i++ {
		op := txOp{kind: txOpKind(dec.byte()), table: dec.str(), rid: RID(dec.uvarint())}
		switch op.kind {
		case opInsert:
			op.row = dec.row()
		case opDelete:
		default:
			dec.fail(fmt.Errorf("storage: corrupt op kind %d", op.kind))
		}
		r.ops = append(r.ops, op)
	}
	return r
}

// apply replays a commit under a fresh local transaction id. (A live
// commit never comes here: its rows are in the heap under its own id
// already, and Tx.Commit only logs, flips visibility and ships.)
//
// The record's primary txid is deliberately not reused for xmin/xmax:
// local read transactions draw ids from the same counter, so a primary
// id could collide with a local id whose status (active or aborted)
// would corrupt the visibility of replayed rows — an aborted local
// reader sharing a replayed delete's id would resurrect the deleted row.
// The local id is registered active for the duration of the apply, so
// concurrent readers see the record all-or-nothing; a failure part-way
// parks the partial writes under the id, aborted: they stay in the heap,
// invisible to every present and future reader, until vacuum reclaims
// them, and a replica is expected to re-bootstrap.
func (r commit) apply(e *Engine, _ step) error {
	// Resolve and check every write before the first one lands.
	tables := make([]*table, len(r.ops))
	for i, op := range r.ops {
		t, err := e.getTable(op.table)
		if errors.Is(err, ErrNoTable) {
			// Dropped by a record already applied — the transaction wrote
			// the table before the drop and committed after it, or the
			// bootstrap dump is past the drop; the drop governs.
			continue
		}
		if err != nil {
			return err
		}
		if op.kind == opInsert && len(op.row) != len(t.schema.Columns) {
			return fmt.Errorf("%w: %d values for table %s", ErrBadFrame, len(op.row), op.table)
		}
		tables[i] = t
	}
	e.txMu.Lock()
	local := e.nextTxID.Add(1) - 1
	e.txActive[local] = true
	e.txMu.Unlock()
	var maxRID uint64
	for i, op := range r.ops {
		if i > 0 {
			// The partial-apply window of a multi-op record.
			if err := fault.Point(fault.ReplicaApplyMid); err != nil {
				e.finishTx(local, txAborted)
				e.noteDead(r.ops[:i], txAborted)
				return err
			}
		}
		if t := tables[i]; t != nil {
			t.replayOp(local, op)
		}
		if uint64(op.rid) > maxRID {
			maxRID = uint64(op.rid)
		}
	}
	e.finishTx(local, txCommitted)
	e.noteDead(r.ops, txCommitted)
	// Keep the RID horizon past every replayed rid: a recovered primary
	// allocates from it, and a promoted replica would.
	for {
		cur := e.nextRID.Load()
		if maxRID < cur || e.nextRID.CompareAndSwap(cur, maxRID+1) {
			return nil
		}
	}
}

// replayOp lands one write of a commit under the local id: insert if
// the rid is absent, delete if it is present and live.
func (t *table) replayOp(local uint64, op txOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, present := t.byRID[op.rid]
	switch {
	case op.kind == opInsert && !present:
		t.add(version{rid: op.rid, row: op.row, xmin: local})
	case op.kind == opDelete && present && t.versions[slot].xmax == 0:
		t.versions[slot].xmax = local
	}
}
