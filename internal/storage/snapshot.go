package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/odbis/odbis/internal/fault"
)

const (
	snapshotFile = "odbis.snap"
	// snapshotMagic v2 adds the checkpoint epoch after the magic (see
	// recEpoch in wal.go for why recovery needs it).
	snapshotMagic = "ODBISNAP2"
)

// Checkpoint writes a consistent snapshot of the committed state to disk,
// truncates the WAL, and — when no transactions are in flight — vacuums
// dead row versions and compacts version slots.
//
// Checkpoint is a no-op for in-memory engines.
func (e *Engine) Checkpoint() error {
	if e.opts.Dir == "" {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.txMu.Lock()
	anyActive := len(e.txActive) > 0
	snap := e.takeSnapshotTxLocked()
	e.txMu.Unlock()

	if !anyActive {
		for _, t := range e.tables {
			e.vacuumTable(t, snap)
		}
		e.txMu.Lock()
		e.txAborted = make(map[uint64]bool)
		e.txMu.Unlock()
	}

	// The checkpoint protocol, in crash-survivable order:
	//
	//  1. write the full state to a temp file stamped with epoch+1
	//  2. atomically rename it over the live snapshot
	//  3. reset the WAL (truncate + stamp epoch+1 + fsync)
	//
	// A crash before 2 leaves the old snapshot + a matching WAL. A crash
	// between 2 and 3 leaves the new snapshot + a stale-epoch WAL, which
	// recovery discards (its records are already in the snapshot). A
	// failure at 3 latches the WAL failed so no commit can be
	// acknowledged into a log the next recovery would discard.
	newEpoch := e.epoch + 1
	path := filepath.Join(e.opts.Dir, snapshotFile)
	tmp := path + ".tmp"
	if err := e.writeSnapshot(tmp, snap, newEpoch); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fault.Point(fault.StorageSnapshotRename); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: publish snapshot: %w", err)
	}
	e.epoch = newEpoch
	gSnapshotEpoch.Set(int64(newEpoch))
	if err := fault.Point(fault.StorageWALTruncate); err != nil {
		e.wal.mu.Lock()
		e.wal.fail(err)
		e.wal.mu.Unlock()
		return err
	}
	// Everything the WAL held is now in the snapshot: reset it.
	return e.wal.reset(newEpoch)
}

// Vacuum reclaims dead row versions and compacts indexes across every
// table, in memory. It is a no-op (returning false) while any transaction
// is active. Durable engines get this automatically from Checkpoint; the
// engine also triggers it opportunistically when a table accumulates many
// dead versions (update-heavy counters would otherwise degrade index
// probes linearly).
func (e *Engine) Vacuum() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	snap, ok := e.quiescentSnapshot()
	if !ok {
		return false
	}
	for _, t := range e.tables {
		e.vacuumTable(t, snap)
	}
	e.txMu.Lock()
	e.txAborted = make(map[uint64]bool)
	e.txMu.Unlock()
	return true
}

// quiescentSnapshot returns a snapshot when no transaction is active.
// Caller must hold e.mu (which blocks all table access, so no new writes
// can land while the caller vacuums).
func (e *Engine) quiescentSnapshot() (snapshot, bool) {
	e.txMu.Lock()
	defer e.txMu.Unlock()
	if len(e.txActive) > 0 {
		return snapshot{}, false
	}
	return e.takeSnapshotTxLocked(), true
}

// maybeVacuumTable vacuums one table when it is safe to do so.
func (e *Engine) maybeVacuumTable(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	t, ok := e.tables[name]
	if !ok {
		return
	}
	snap, quiet := e.quiescentSnapshot()
	if !quiet {
		return
	}
	e.vacuumTable(t, snap)
}

// vacuumThreshold is the per-table dead-version count that triggers an
// opportunistic vacuum after a commit.
const vacuumThreshold = 256

// vacuumTable removes versions invisible to every present and future
// transaction and freezes the survivors. Caller holds e.mu and guarantees
// no transaction is active.
func (e *Engine) vacuumTable(t *table, snap snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := make([]version, 0, len(t.versions))
	var memo statusMemo
	for i := range t.versions {
		v := &t.versions[i]
		if e.visible(v, snap, 0, &memo) {
			kept = append(kept, version{rid: v.rid, row: v.row})
		}
	}
	t.versions = kept
	t.byRID = make(map[RID]rowID, len(kept))
	for i := range kept {
		t.byRID[kept[i].rid] = rowID(i)
	}
	for _, ix := range t.indexes {
		rebuilt := e.buildIndex(t, ix.info)
		*ix = *rebuilt
	}
	t.dead = 0
}

// crcWriter tees writes through a CRC-32 so the snapshot carries an
// end-to-end checksum.
type crcWriter struct {
	w io.Writer
	h hash.Hash32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.h.Write(p)
	return c.w.Write(p)
}

func (e *Engine) writeSnapshot(path string, snap snapshot, epoch uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: create snapshot: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	// The torn-snapshot window: a crash while the temp file is partially
	// written must leave the previous snapshot untouched. The point fires
	// here (not inside encodeState) so replica bootstrap dumps never trip
	// snapshot-write faults armed against the checkpoint path.
	mid := func() error {
		if err := fault.Point(fault.StorageSnapshotWrite); err != nil {
			return fmt.Errorf("storage: write snapshot: %w", err)
		}
		return nil
	}
	if err := e.encodeState(bw, snap, epoch, mid); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// DumpState streams a consistent committed-state snapshot (the on-disk
// snapshot format) to w, without touching the snapshot file, the WAL, or
// the checkpoint epoch. It is the replica-bootstrap source: Subscribe to
// the WAL first, then dump — every transaction committed before the dump
// snapshot is in the dump, everything after is on the subscription.
func (e *Engine) DumpState(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	return e.encodeState(w, e.takeSnapshotLocked(), e.epoch, nil)
}

// encodeState writes the full committed state in the snapshot format,
// CRC trailer included. mid, when non-nil, runs after the header — the
// checkpoint path injects its torn-write fault there. Caller holds e.mu
// (read or write).
func (e *Engine) encodeState(w io.Writer, snap snapshot, epoch uint64, mid func() error) error {
	cw := &crcWriter{w: w, h: crc32.NewIEEE()}
	enc := newEncoder(cw)

	enc.str(snapshotMagic)
	enc.uvarint(epoch)
	enc.uvarint(e.nextRID.Load())
	enc.uvarint(e.nextTxID.Load())
	if mid != nil {
		if err := mid(); err != nil {
			return err
		}
	}

	e.seqMu.Lock()
	seqNames := make([]string, 0, len(e.seqs))
	for name := range e.seqs {
		seqNames = append(seqNames, name)
	}
	sort.Strings(seqNames)
	enc.uvarint(uint64(len(seqNames)))
	for _, name := range seqNames {
		enc.str(name)
		enc.varint(e.seqs[name])
	}
	e.seqMu.Unlock()

	tableNames := make([]string, 0, len(e.tables))
	for k := range e.tables {
		tableNames = append(tableNames, k)
	}
	sort.Strings(tableNames)
	enc.uvarint(uint64(len(tableNames)))
	for _, k := range tableNames {
		t := e.tables[k]
		t.mu.RLock()
		enc.schema(t.schema)
		// Secondary indexes (the PK index is implied by the schema).
		var secondary []*index
		for _, ix := range t.indexes {
			if ix != t.pkIndex {
				secondary = append(secondary, ix)
			}
		}
		sort.Slice(secondary, func(i, j int) bool { return secondary[i].info.Name < secondary[j].info.Name })
		enc.uvarint(uint64(len(secondary)))
		for _, ix := range secondary {
			encodeIndexInfo(enc, ix.info)
		}
		// Committed-visible rows only.
		var rows []*version
		var memo statusMemo
		for i := range t.versions {
			if e.visible(&t.versions[i], snap, 0, &memo) {
				rows = append(rows, &t.versions[i])
			}
		}
		enc.uvarint(uint64(len(rows)))
		for _, v := range rows {
			enc.uvarint(uint64(v.rid))
			enc.row(v.row)
		}
		t.mu.RUnlock()
	}
	if err := enc.flush(); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.BigEndian.PutUint32(crcBuf[:], cw.h.Sum32())
	_, err := w.Write(crcBuf[:])
	return err
}

// loadSnapshot restores engine state from a snapshot file. A missing file
// is not an error (fresh database); a corrupt file is.
func (e *Engine) loadSnapshot(path string) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: open snapshot: %w", err)
	}
	if err := e.restoreState(raw, path); err != nil {
		return err
	}
	// Only the durable open path owns the process-wide epoch gauge; a
	// replica restoring a bootstrap dump must not stomp the primary's.
	gSnapshotEpoch.Set(int64(e.epoch))
	return nil
}

// OpenFromDump builds a fresh in-memory engine from a DumpState image —
// the replica-bootstrap entry point. The dump's CRC and structure are
// verified like an on-disk snapshot's.
func OpenFromDump(raw []byte) (*Engine, error) {
	e := &Engine{
		tables:    make(map[string]*table),
		txActive:  make(map[uint64]bool),
		txAborted: make(map[uint64]bool),
		seqs:      make(map[string]int64),
	}
	e.nextTxID.Store(1)
	e.nextRID.Store(1)
	if err := e.restoreState(raw, "dump"); err != nil {
		return nil, err
	}
	e.reportRecoveredDuplicates()
	return e, nil
}

// restoreState decodes a snapshot image into the engine. src names the
// image origin for error messages. Single-threaded: callers run before
// the engine is published.
func (e *Engine) restoreState(raw []byte, src string) error {
	path := src
	if len(raw) < 4 {
		return fmt.Errorf("storage: snapshot %s truncated", path)
	}
	body, crcBytes := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return fmt.Errorf("storage: snapshot %s checksum mismatch", path)
	}
	dec := newDecoder(body)

	if magic := dec.str(); magic != snapshotMagic {
		return fmt.Errorf("storage: snapshot %s: bad magic %q", path, magic)
	}
	e.epoch = dec.uvarint()
	nextRID := dec.uvarint()
	nextTx := dec.uvarint()
	nseq := dec.length()
	if dec.err != nil {
		return fmt.Errorf("storage: snapshot %s corrupt (sequences)", path)
	}
	for i := uint64(0); i < nseq; i++ {
		name := dec.str()
		v := dec.varint()
		if dec.err == nil {
			e.seqs[name] = v
		}
	}
	ntab := dec.length()
	if dec.err != nil {
		return fmt.Errorf("storage: snapshot %s corrupt (tables)", path)
	}
	for i := uint64(0); i < ntab; i++ {
		s := dec.schema()
		if dec.err != nil {
			return fmt.Errorf("storage: snapshot %s corrupt: %v", path, dec.err)
		}
		infos := make([]IndexInfo, dec.length())
		for j := range infos {
			infos[j] = decodeIndexInfo(dec)
		}
		versions := make([]version, dec.length())
		for j := range versions {
			versions[j] = version{rid: RID(dec.uvarint()), row: dec.row()}
		}
		if dec.err != nil {
			return fmt.Errorf("storage: snapshot %s corrupt: %v", path, dec.err)
		}
		e.tables[lowerName(s.Name)] = e.newTable(s, versions, infos)
	}
	if dec.err != nil {
		return fmt.Errorf("storage: snapshot %s corrupt: %v", path, dec.err)
	}
	if nextRID > e.nextRID.Load() {
		e.nextRID.Store(nextRID)
	}
	if nextTx > e.nextTxID.Load() {
		e.nextTxID.Store(nextTx)
	}
	return nil
}
