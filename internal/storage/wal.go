package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"github.com/odbis/odbis/internal/fault"
)

const walFile = "odbis.wal"

// recEpoch stamps the WAL with the checkpoint epoch of the snapshot it
// extends. It is always the first record of a reset WAL and never a redo
// record (record.go): it is neither shipped nor applied. Replay discards
// a WAL whose epoch does not match the loaded snapshot (a crash between
// snapshot publish and WAL reset would otherwise re-apply records the
// snapshot already contains).
const recEpoch byte = 'E'

// wal is an append-only log of redo-record payloads (record.go owns what
// is in them; this file owns how they sit in the file). Records are
// framed as
//
//	[uint32 payload length][payload][uint32 CRC-32 of payload]
//
// where the payload starts with a record-type byte. A torn final record
// (short frame or CRC mismatch) marks the end of the recoverable log and
// is truncated on the next append.
type wal struct {
	mu   sync.Mutex
	f    *os.File
	sync SyncMode
	buf  []byte // the frame being written, reused across appends
	// failed latches the first physical write/sync error. Once set,
	// every further append fails fast with ErrWALFailed: the on-disk
	// tail is suspect, and acknowledging commits that may not survive a
	// restart would silently diverge memory from disk. A successful
	// checkpoint resets the WAL from known-good memory state and clears
	// the latch.
	failed error
}

func openWAL(path string, mode SyncMode) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	return &wal{f: f, sync: mode}, nil
}

func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// appendFrame appends payload's frame to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// append frames and writes one record payload, honoring the sync mode.
// On success it returns the frame size in bytes so callers can attribute
// durable write volume.
func (w *wal) append(payload []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, ErrClosed
	}
	if w.failed != nil {
		return 0, fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.failed)
	}
	// Nothing has reached the file yet: a failure up to here (including
	// the armed fault below) aborts the record cleanly and the WAL stays
	// usable.
	if err := fault.Point(fault.StorageWALAppend); err != nil {
		return 0, err
	}
	w.buf = appendFrame(w.buf[:0], payload)
	// Seek to end: recovery may have left the offset mid-file after a torn
	// record.
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return 0, err
	}
	if _, err := w.f.Write(w.buf[:4]); err != nil {
		return 0, w.fail(err)
	}
	// The torn-write window: the frame header is on disk, the payload is
	// not. A crash armed here leaves exactly the partial frame recovery
	// must truncate.
	if err := fault.Point(fault.StorageWALAppendMid); err != nil {
		return 0, w.fail(err)
	}
	if _, err := w.f.Write(w.buf[4:]); err != nil {
		return 0, w.fail(err)
	}
	if w.sync == SyncFull {
		if err := fault.Point(fault.StorageWALSync); err != nil {
			return 0, w.fail(err)
		}
		if err := w.f.Sync(); err != nil {
			return 0, w.fail(err)
		}
		mWALSyncs.Inc()
	}
	mWALAppends.Inc()
	mWALBytes.Add(int64(len(w.buf)))
	return len(w.buf), nil
}

// fail latches a physical write/sync error (caller holds w.mu).
func (w *wal) fail(err error) error {
	if w.failed == nil {
		w.failed = err
		mWALLatchTrips.Inc()
	}
	return err
}

// reset truncates the WAL, stamps it with the checkpoint epoch and
// fsyncs, clearing any latched failure: after a reset the on-disk log is
// empty and provably in sync with memory again. On error the WAL is
// latched failed — an un-reset WAL next to a newer snapshot must not
// accept appends the next recovery would discard as stale.
func (w *wal) reset(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	if err := w.f.Truncate(0); err != nil {
		return w.fail(fmt.Errorf("storage: truncate wal: %w", err))
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return w.fail(err)
	}
	stamp := binary.AppendUvarint([]byte{recEpoch}, epoch)
	if _, err := w.f.Write(appendFrame(nil, stamp)); err != nil {
		return w.fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.failed = nil
	return nil
}

// errTornRecord marks the recoverable end of the log during replay.
var errTornRecord = errors.New("storage: torn wal record")

// replayWAL feeds every intact record of the WAL to the one applier
// (ApplyReplicated, record.go), which keeps the RID horizon and draws
// local transaction ids as it goes. A torn tail is truncated so future
// appends produce a clean log. A WAL whose epoch
// stamp disagrees with the loaded snapshot is discarded whole: it was
// written against a different snapshot baseline (a crash landed between
// snapshot publish and WAL reset), so its records are either already in
// the snapshot or inconsistent with it — replaying them would duplicate
// rows or resurrect dropped tables.
func (e *Engine) replayWAL() error {
	w := e.wal
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var goodEnd int64
	// A WAL with no epoch record is a fresh, never-checkpointed log
	// (epoch 0): reset always stamps one.
	walEpoch := uint64(0)
	first := true
	r := io.Reader(w.f)
	for {
		payload, n, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if errors.Is(err, errTornRecord) {
			break
		}
		if err != nil {
			return err
		}
		if first {
			first = false
			if ep, ok := decodeEpoch(payload); ok {
				walEpoch = ep
				goodEnd += int64(n)
				if walEpoch != e.epoch {
					break
				}
				continue
			}
		}
		if walEpoch != e.epoch {
			break
		}
		if err := e.ApplyReplicated(payload); err != nil {
			return fmt.Errorf("storage: replay wal record at offset %d: %w", goodEnd, err)
		}
		goodEnd += int64(n)
	}
	// Mismatched (or missing) epoch after a checkpoint: discard the
	// stale log and restamp. This also covers a crash inside reset
	// itself (truncated but not yet stamped).
	if walEpoch != e.epoch {
		return w.reset(e.epoch)
	}
	if err := w.f.Truncate(goodEnd); err != nil {
		return fmt.Errorf("storage: truncate torn wal: %w", err)
	}
	return nil
}

// decodeEpoch reports whether payload is an epoch record and its value.
func decodeEpoch(payload []byte) (uint64, bool) {
	if len(payload) == 0 || payload[0] != recEpoch {
		return 0, false
	}
	ep, n := binary.Uvarint(payload[1:])
	return ep, n > 0
}

// readFrame reads one framed record, returning the payload and the total
// frame size consumed.
func readFrame(r io.Reader) ([]byte, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, errTornRecord
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxBlob {
		return nil, 0, errTornRecord
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, errTornRecord
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, 0, errTornRecord
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(crcBuf[:]) {
		return nil, 0, errTornRecord
	}
	return payload, int(n) + 8, nil
}
