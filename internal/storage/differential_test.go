package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The primary-vs-replica axis of the engine oracle: one seeded DDL+DML
// stream runs on a durable primary with a follower attached the way
// internal/replica attaches one (subscribe, dump, apply the tail). The
// primary is then closed and reopened — a full WAL replay, on top of a
// checkpoint in the second variant — and the recovered primary and the
// follower, both built by ApplyReplicated from the same payloads, must
// agree on tables, visible rows by RID, index sets (every index probed
// for every row) and sequence values — with each other and with what the
// live path had left in the primary's memory.

// randomStream drives steps seeded operations against e, calling at[i]
// before operation i.
func randomStream(t *testing.T, e *Engine, seed int64, steps int, at map[int]func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tables := []string{"t0", "t1", "t2"}
	columns := []string{"id", "grp", "label"}
	live := map[string][]RID{} // per existing table, the rids a delete may pick
	schema := func(name string) *Schema {
		s, err := NewSchema(name, []Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "grp", Type: TypeInt},
			{Name: "label", Type: TypeString, Default: "none"},
		}, "id")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	row := func() Row {
		var label Value
		if rng.Intn(4) > 0 {
			label = fmt.Sprintf("l%d", rng.Intn(8))
		}
		return Row{int64(rng.Intn(400)), int64(rng.Intn(6)), label}
	}
	// write runs one transaction of n writes; a failed write (duplicate
	// key) or a coin flip rolls it back, and then it must leave no trace.
	write := func(tx *Tx, n int) {
		staged := map[string][]RID{}
		for name, rids := range live {
			staged[name] = append([]RID(nil), rids...)
		}
		ok := rng.Intn(10) > 0
		for i := 0; i < n && ok; i++ {
			name := tables[rng.Intn(len(tables))]
			rids, exists := staged[name]
			if !exists {
				continue
			}
			switch pick := rng.Intn(4); {
			case pick == 0 && len(rids) > 0:
				j := rng.Intn(len(rids))
				ok = tx.DeleteRID(name, rids[j]) == nil
				staged[name] = append(rids[:j:j], rids[j+1:]...)
			case pick == 1 && len(rids) > 0:
				j := rng.Intn(len(rids))
				rid, err := tx.UpdateRID(name, rids[j], row())
				ok = err == nil
				staged[name] = append(append(rids[:j:j], rids[j+1:]...), rid)
			default:
				rid, err := tx.Insert(name, row())
				ok = err == nil
				staged[name] = append(rids, rid)
			}
		}
		if !ok {
			tx.Rollback()
			return
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		for name := range live { // a table dropped under the tx stays dropped
			live[name] = staged[name]
		}
	}
	for i := 0; i < steps; i++ {
		if hook := at[i]; hook != nil {
			hook()
		}
		name := tables[rng.Intn(len(tables))]
		_, exists := live[name]
		index := IndexInfo{
			Name:    fmt.Sprintf("%s_ix%d", name, rng.Intn(3)),
			Table:   name,
			Columns: []string{columns[rng.Intn(len(columns))]},
			Unique:  rng.Intn(5) == 0,
			Kind:    IndexKind(rng.Intn(2)),
		}
		switch pick := rng.Intn(20); {
		case !exists && pick < 10:
			if err := e.CreateTable(schema(name)); err != nil {
				t.Fatalf("create %s: %v", name, err)
			}
			live[name] = nil
		case pick == 0 && exists:
			// Half the drops happen under an open transaction that wrote
			// the table: its commit record follows the drop in the log.
			var straddle *Tx
			if rng.Intn(2) == 0 {
				straddle = e.Begin()
				if _, err := straddle.Insert(name, row()); err != nil {
					straddle.Rollback()
					straddle = nil
				}
			}
			if err := e.DropTable(name); err != nil {
				t.Fatalf("drop %s: %v", name, err)
			}
			delete(live, name)
			if straddle != nil {
				write(straddle, 2)
			}
		case pick <= 2:
			e.CreateIndex(index) // may be refused: exists, no table, duplicates
		case pick == 3:
			e.DropIndex(name, index.Name) // may be refused: no such index
		case pick <= 5:
			if _, err := e.NextSequence(fmt.Sprintf("s%d", rng.Intn(3))); err != nil {
				t.Fatalf("sequence: %v", err)
			}
		default:
			write(e.Begin(), 1+rng.Intn(5))
		}
	}
}

func TestRecoveredPrimaryMatchesReplica(t *testing.T) {
	const steps = 600
	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{{"wal-only", false}, {"checkpoint-mid-stream", true}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				dir := t.TempDir()
				primary := openDir(t, dir, SyncBuffered)
				var sub *WALSub
				var follower *Engine
				var applied uint64
				catchUp := func() {
					t.Helper()
					for applied < primary.ShippedLSN() {
						f, ok := <-sub.Frames()
						if !ok {
							t.Fatal("subscription dropped")
						}
						if err := follower.ApplyReplicated(f.Payload); err != nil {
							t.Fatalf("follower apply lsn %d: %v", f.LSN, err)
						}
						applied = f.LSN
					}
				}
				// The first half runs before the follower attaches, so it
				// arrives in the dump; the follower subscribes, lets a few
				// more operations through, and only then dumps, so those
				// arrive twice — the bootstrap overlap idempotence is for.
				randomStream(t, primary, seed, steps, map[int]func(){
					steps / 2: func() {
						sub = primary.SubscribeWAL(8 * steps)
						applied = sub.StartLSN
					},
					steps/2 + 20: func() {
						var dump bytes.Buffer
						if err := primary.DumpState(&dump); err != nil {
							t.Fatal(err)
						}
						var err error
						if follower, err = OpenFromDump(dump.Bytes()); err != nil {
							t.Fatal(err)
						}
						if tc.checkpoint {
							if err := primary.Checkpoint(); err != nil {
								t.Fatal(err)
							}
						}
					},
				})
				defer sub.Close()
				defer follower.Close()
				catchUp()
				// What the live path — not the applier — left in memory.
				live := listState(t, primary)
				if err := primary.Close(); err != nil {
					t.Fatal(err)
				}
				recovered := openDir(t, dir, SyncBuffered)
				defer recovered.Close()
				got, want := listState(t, recovered), listState(t, follower)
				if got != want {
					t.Errorf("recovered primary and replica disagree\n--- recovered primary\n%s--- replica\n%s", got, want)
				}
				if got != live {
					t.Errorf("recovered primary differs from the primary before it closed\n--- recovered\n%s--- before close\n%s", got, live)
				}
				if len(recovered.Tables()) == 0 {
					t.Error("stream left no table: the comparison proved nothing")
				}
			})
		}
	}
}
