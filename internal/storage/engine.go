package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SyncMode selects the durability of committed transactions.
type SyncMode uint8

const (
	// SyncNone keeps WAL records in the process buffer; a crash may lose
	// recent commits. Fastest.
	SyncNone SyncMode = iota
	// SyncBuffered flushes WAL records to the operating system at every
	// commit; an OS crash may lose recent commits, a process crash does not.
	SyncBuffered
	// SyncFull fsyncs the WAL at every commit. Slowest, fully durable.
	SyncFull
)

// Options configure Open.
type Options struct {
	// Dir is the data directory. Empty means a purely in-memory engine
	// with no durability.
	Dir string
	// Sync selects WAL durability (ignored for in-memory engines).
	Sync SyncMode
}

// Common error values returned by the engine.
var (
	ErrTableExists   = errors.New("storage: table already exists")
	ErrNoTable       = errors.New("storage: no such table")
	ErrNoIndex       = errors.New("storage: no such index")
	ErrIndexExists   = errors.New("storage: index already exists")
	ErrDuplicate     = errors.New("storage: unique constraint violation")
	ErrConflict      = errors.New("storage: transaction conflict")
	ErrTxDone        = errors.New("storage: transaction already finished")
	ErrNoRow         = errors.New("storage: no such row")
	ErrClosed        = errors.New("storage: engine closed")
	ErrRowNotVisible = errors.New("storage: row not visible to transaction")
	// ErrWALFailed reports that a previous WAL write or sync failed and
	// the engine refuses further commits: the on-disk log tail is
	// suspect, and acknowledging writes that may not survive a restart
	// would silently diverge memory from disk. A successful Checkpoint
	// rebuilds the log from memory and clears the condition.
	ErrWALFailed = errors.New("storage: wal failed, engine is read-only until checkpoint or restart")
)

// rowID indexes a version slot within a table.
type rowID uint32

// RID is the stable, engine-wide identity of a row version. RIDs survive
// restarts and checkpoints and are how callers address updates/deletes.
type RID uint64

type txStatus uint8

const (
	txActive txStatus = iota
	txCommitted
	txAborted
)

// version is one MVCC version of a row.
type version struct {
	rid  RID
	row  Row
	xmin uint64 // creating transaction; 0 means frozen (always committed)
	xmax uint64 // deleting transaction; 0 means live
}

// IndexKind selects the index structure.
type IndexKind uint8

const (
	// IndexHash supports equality probes only.
	IndexHash IndexKind = iota
	// IndexBTree supports equality probes and ordered range scans.
	IndexBTree
)

func (k IndexKind) String() string {
	if k == IndexHash {
		return "hash"
	}
	return "btree"
}

// IndexInfo describes a secondary index.
type IndexInfo struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Kind    IndexKind
}

type index struct {
	info IndexInfo
	cols []int              // column positions
	hash map[string][]rowID // IndexHash
	tree *btree             // IndexBTree
}

func (ix *index) insert(key string, id rowID) {
	if ix.tree != nil {
		ix.tree.Insert(key, id)
		return
	}
	ix.hash[key] = append(ix.hash[key], id)
}

func (ix *index) remove(key string, id rowID) {
	if ix.tree != nil {
		ix.tree.Delete(key, id)
		return
	}
	ids := ix.hash[key]
	for i, got := range ids {
		if got == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(ix.hash, key)
		return
	}
	ix.hash[key] = ids
}

func (ix *index) lookup(key string) []rowID {
	if ix.tree != nil {
		return ix.tree.Get(key)
	}
	return ix.hash[key]
}

func (ix *index) keyFor(row Row) string {
	vals := make([]Value, len(ix.cols))
	for i, c := range ix.cols {
		vals[i] = row[c]
	}
	return EncodeKey(vals...)
}

// table holds the versions and indexes of one relation.
type table struct {
	mu     sync.RWMutex
	schema *Schema
	//odbis:guardedby mu -- newTable also writes it, on a table not yet published
	versions []version
	//odbis:guardedby mu -- newTable also writes it, on a table not yet published
	byRID   map[RID]rowID
	indexes map[string]*index // lower-cased index name
	pkIndex *index            // nil when the table has no primary key
	dead    int               // committed-dead version count, drives vacuum
}

// add appends v to the heap and enters it in every index (caller holds
// t.mu).
func (t *table) add(v version) {
	slot := rowID(len(t.versions))
	t.versions = append(t.versions, v)
	t.byRID[v.rid] = slot
	for _, ix := range t.indexes {
		ix.insert(ix.keyFor(v.row), slot)
	}
}

// Engine is the storage engine. It is safe for concurrent use.
type Engine struct {
	opts Options

	mu     sync.RWMutex // guards tables map and closing
	tables map[string]*table
	closed bool

	txMu     sync.Mutex // guards txActive and txAborted
	txActive map[uint64]bool
	// txAborted retains aborted transaction ids until vacuum rewrites
	// the row versions that reference them; committed ids need no entry
	// (statusOf treats unknown ids as committed).
	txAborted map[uint64]bool
	nextTxID  atomic.Uint64
	nextRID   atomic.Uint64

	seqMu sync.Mutex
	//odbis:guardedby seqMu -- snapshot load also writes it, single-threaded in Open before the engine is published
	seqs map[string]int64

	wal *wal // nil for in-memory engines
	// epoch counts checkpoints: the snapshot on disk carries it and the
	// WAL is stamped with it on every reset, letting recovery detect a
	// WAL that predates the snapshot (crash between snapshot publish and
	// WAL reset). Guarded by e.mu.
	epoch uint64

	statsReads  atomic.Uint64
	statsWrites atomic.Uint64

	// schemaEpoch counts DDL changes (table or index create/drop).
	// The SQL layer stamps cached plans with the epoch they were
	// planned under and treats any mismatch as a cache miss, so one
	// atomic compare is the whole invalidation protocol.
	schemaEpoch atomic.Uint64

	attachMu sync.Mutex
	//odbis:guardedby attachMu
	attach map[any]any

	// tap fans committed redo frames out to WAL subscribers (replicas).
	// Lock order: e.mu and t.mu come before tap.mu; tap.mu comes before
	// txMu (Commit flips visibility and ships under it). See ship.go.
	tap frameTap
}

// SchemaEpoch returns the current schema epoch. Every DDL operation
// (CREATE/DROP TABLE, CREATE/DROP INDEX) bumps it; consumers that
// cache schema-derived artifacts revalidate by comparing epochs.
func (e *Engine) SchemaEpoch() uint64 { return e.schemaEpoch.Load() }

// Attachment returns the per-engine singleton stored under key,
// creating it with mk on first use. Layers above storage use this to
// share engine-lifetime state (e.g. the SQL plan cache) across
// independently constructed handles onto the same engine.
func (e *Engine) Attachment(key any, mk func() any) any {
	e.attachMu.Lock()
	defer e.attachMu.Unlock()
	if e.attach == nil {
		e.attach = make(map[any]any)
	}
	v, ok := e.attach[key]
	if !ok {
		v = mk()
		e.attach[key] = v
	}
	return v
}

// Open creates or recovers an engine. With a non-empty Options.Dir the
// directory is created if needed, the latest snapshot is loaded and the
// WAL replayed.
func Open(opts Options) (*Engine, error) {
	e := &Engine{
		opts:      opts,
		tables:    make(map[string]*table),
		txActive:  make(map[uint64]bool),
		txAborted: make(map[uint64]bool),
		seqs:      make(map[string]int64),
	}
	e.nextTxID.Store(1)
	e.nextRID.Store(1)
	if opts.Dir == "" {
		return e, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	if err := e.loadSnapshot(filepath.Join(opts.Dir, snapshotFile)); err != nil {
		return nil, err
	}
	w, err := openWAL(filepath.Join(opts.Dir, walFile), opts.Sync)
	if err != nil {
		return nil, err
	}
	e.wal = w
	if err := e.replayWAL(); err != nil {
		w.Close()
		return nil, err
	}
	return e, nil
}

// MustOpenMemory returns an in-memory engine, panicking on failure. It is
// a convenience for tests and examples.
func MustOpenMemory() *Engine {
	e, err := Open(Options{})
	if err != nil {
		panic(err)
	}
	return e
}

// Close flushes the WAL and releases resources. Closing twice is an error.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.closed = true
	e.closeTap()
	if e.wal != nil {
		return e.wal.Close()
	}
	return nil
}

// Dir reports the data directory ("" for in-memory engines).
func (e *Engine) Dir() string { return e.opts.Dir }

// Stats reports cumulative engine counters.
type Stats struct {
	Tables int
	Rows   int // live committed rows across all tables
	Reads  uint64
	Writes uint64
}

// Stats returns a point-in-time snapshot of engine counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := Stats{
		Tables: len(e.tables),
		Reads:  e.statsReads.Load(),
		Writes: e.statsWrites.Load(),
	}
	snap := e.takeSnapshotLocked()
	for _, t := range e.tables {
		t.mu.RLock()
		for i := range t.versions {
			if e.visible(&t.versions[i], snap, 0) {
				st.Rows++
			}
		}
		t.mu.RUnlock()
	}
	return st
}

func lowerName(name string) string { return strings.ToLower(name) }

func (e *Engine) getTable(name string) (*table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	t, ok := e.tables[lowerName(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// CreateTable registers a new table. DDL is auto-committed, logged
// before it is installed and durable immediately.
func (e *Engine) CreateTable(s *Schema) error {
	return e.autoCommit(createTable{schema: s.Clone()})
}

// DropTable removes a table and its indexes.
func (e *Engine) DropTable(name string) error {
	return e.autoCommit(dropTable{name: name})
}

// HasTable reports whether the named table exists.
func (e *Engine) HasTable(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.tables[lowerName(name)]
	return ok
}

// Schema returns a copy of the named table's schema.
func (e *Engine) Schema(name string) (*Schema, error) {
	t, err := e.getTable(name)
	if err != nil {
		return nil, err
	}
	return t.schema.Clone(), nil
}

// Tables lists table names in sorted order.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for _, t := range e.tables {
		names = append(names, t.schema.Name)
	}
	sort.Strings(names)
	return names
}

func (e *Engine) buildIndex(t *table, info IndexInfo) *index {
	ix := &index{info: info}
	ix.cols = make([]int, len(info.Columns))
	for i, c := range info.Columns {
		pos, _ := t.schema.ColumnIndex(c)
		ix.cols[i] = pos
	}
	if info.Kind == IndexBTree {
		ix.tree = newBTree()
	} else {
		ix.hash = make(map[string][]rowID)
	}
	for id := range t.versions {
		v := &t.versions[id]
		ix.insert(ix.keyFor(v.row), rowID(id))
	}
	return ix
}

// CreateIndex builds a secondary index over existing and future rows.
// Unique indexes reject creation when committed rows already violate
// uniqueness.
func (e *Engine) CreateIndex(info IndexInfo) error {
	return e.autoCommit(createIndex{info: info})
}

// DropIndex removes a secondary index. The implicit primary-key index
// cannot be dropped.
func (e *Engine) DropIndex(tableName, indexName string) error {
	return e.autoCommit(dropIndex{table: tableName, name: indexName})
}

// Indexes lists the indexes defined on a table.
func (e *Engine) Indexes(tableName string) ([]IndexInfo, error) {
	t, err := e.getTable(tableName)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexInfo, 0, len(t.indexes))
	for _, ix := range t.indexes {
		info := ix.info
		info.Columns = append([]string(nil), ix.info.Columns...)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// NextSequence atomically increments and returns the named sequence,
// starting from 1. Sequence bumps are durable independently of any open
// transaction (like PostgreSQL sequences, they do not roll back).
func (e *Engine) NextSequence(name string) (int64, error) {
	e.seqMu.Lock()
	e.seqs[name]++
	v := e.seqs[name]
	e.seqMu.Unlock()
	var r redo = sequenceBump{name: name, value: v}
	payload, _, err := e.logRecord(r)
	// Ship whatever the WAL said: replicas mirror memory, and the bump
	// above never rolls back.
	e.ship(r, payload)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// SequenceValue reports the current value of a sequence without
// incrementing it.
func (e *Engine) SequenceValue(name string) int64 {
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	return e.seqs[name]
}

// snapshot captures the visibility horizon of a transaction.
type snapshot struct {
	xmax   uint64          // transactions with id >= xmax are invisible
	active map[uint64]bool // transactions in-flight at snapshot time
}

func (e *Engine) takeSnapshot() snapshot {
	e.txMu.Lock()
	defer e.txMu.Unlock()
	return e.takeSnapshotTxLocked()
}

func (e *Engine) takeSnapshotTxLocked() snapshot {
	s := snapshot{xmax: e.nextTxID.Load(), active: nil}
	if len(e.txActive) > 0 {
		s.active = make(map[uint64]bool, len(e.txActive))
		for id := range e.txActive {
			s.active[id] = true
		}
	}
	return s
}

// takeSnapshotLocked is takeSnapshot for callers already holding e.mu.
func (e *Engine) takeSnapshotLocked() snapshot { return e.takeSnapshot() }

func (e *Engine) statusOf(txid uint64) txStatus {
	if txid == 0 {
		return txCommitted
	}
	e.txMu.Lock()
	defer e.txMu.Unlock()
	switch {
	case e.txActive[txid]:
		return txActive
	case e.txAborted[txid]:
		return txAborted
	default:
		// Committed transactions carry no entry.
		return txCommitted
	}
}

// committedBefore reports whether txid committed before the snapshot was
// taken.
func (e *Engine) committedBefore(txid uint64, s snapshot) bool {
	if txid == 0 {
		return true
	}
	if txid >= s.xmax || s.active[txid] {
		return false
	}
	return e.statusOf(txid) == txCommitted
}

// visible reports whether version v is visible under snapshot s to the
// transaction with id self (0 for a read-only observer).
func (e *Engine) visible(v *version, s snapshot, self uint64) bool {
	switch {
	case v.xmin == self && self != 0:
		// Our own insert: visible unless we deleted it ourselves.
		if v.xmax == self {
			return false
		}
	case !e.committedBefore(v.xmin, s):
		return false
	}
	if v.xmax == 0 {
		return true
	}
	if v.xmax == self && self != 0 {
		return false
	}
	// A delete is effective only when its transaction committed before our
	// snapshot; otherwise the row is still visible to us.
	return !e.committedBefore(v.xmax, s)
}
