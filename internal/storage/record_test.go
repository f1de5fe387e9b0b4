package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenPayloads returns the redo payloads of the parent-format golden's
// WAL tail: every record kind, as the parent commit wrote it.
func goldenPayloads(t testing.TB) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(parentDataDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for r := bytes.NewReader(raw); ; {
		payload, _, err := readFrame(r)
		if err != nil {
			return out
		}
		if _, stamp := decodeEpoch(payload); !stamp {
			out = append(out, payload)
		}
	}
}

func dumpOf(t testing.TB, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.DumpState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzApplyRecord feeds hostile payloads to the one decoder/applier, on
// an engine that already holds the golden's checkpoint (so records find
// tables, rows and indexes to collide with). It must never panic; a
// rejected payload must leave the state dump byte-identical; an accepted
// one must re-encode to the bytes it was decoded from and apply
// idempotently — provided it is something a primary can write: a commit's
// ops are in execution order, so a rid is never deleted before the op
// that inserts it (a record that does is applied, but a second apply
// finds the row the first one's delete could not).
func FuzzApplyRecord(f *testing.F) {
	for _, payload := range goldenPayloads(f) {
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
		f.Add(payload[:len(payload)-1])
		f.Add(append(append([]byte(nil), payload...), 0))
	}
	snap, err := os.ReadFile(filepath.Join(parentDataDir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := OpenFromDump(snap)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		before := dumpOf(t, e)
		r, derr := decodeRecord(payload)
		if derr == nil {
			if again, err := encodeRecord(r); err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("accepted payload %x re-encodes to %x (err %v)", payload, again, err)
			}
		}
		if err := e.ApplyReplicated(payload); err != nil {
			if after := dumpOf(t, e); !bytes.Equal(after, before) {
				t.Fatalf("payload %x was rejected (%v) yet changed the state dump", payload, err)
			}
			return
		}
		if derr != nil {
			t.Fatalf("payload %x does not decode (%v) yet was applied", payload, derr)
		}
		if c, ok := r.(commit); ok {
			deleted := map[RID]bool{}
			for _, op := range c.ops {
				if op.kind == opInsert && deleted[op.rid] {
					return
				}
				deleted[op.rid] = op.kind == opDelete
			}
		}
		once := listState(t, e)
		if err := e.ApplyReplicated(payload); err != nil {
			t.Fatalf("payload %x applied once, then failed: %v", payload, err)
		}
		if twice := listState(t, e); twice != once {
			t.Fatalf("payload %x is not idempotent\n--- once\n%s--- twice\n%s", payload, once, twice)
		}
	})
}
