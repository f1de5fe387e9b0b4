package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The parent-format golden: testdata/parent_datadir holds a data
// directory (checkpoint snapshot + WAL tail) written by commit c08910b,
// the last one before the redo record moved behind one module
// (record.go), and testdata/parent_datadir.listing what that commit
// recovered from it. Both were produced in a clone of c08910b, before any
// storage edit, by this file plus a branch that ran goldenStream on an
// empty directory and saved the two files and listState of the reopened
// engine. They are the on-disk compatibility contract: there is no
// update flag, and a commit that cannot read them has broken recovery of
// existing data directories.

const parentDataDir = "testdata/parent_datadir"

func goldenTime(day int) time.Time {
	return time.Date(2010, time.March, day, 9, 30, 0, 125000*1000, time.UTC)
}

// goldenStream runs the fixed statement stream behind the golden: a
// first phase that ends in a checkpoint (so it lands in odbis.snap) and
// a WAL tail holding every record kind — create/drop table, create/drop
// index, sequence bumps, multi-op commits with deletes, a commit logged
// before its table's drop and one logged after it.
func goldenStream(t testing.TB, e *Engine) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	seq := func(name string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			_, err := e.NextSequence(name)
			must(err)
		}
	}
	accounts, err := NewSchema("accounts", []Column{
		{Name: "id", Type: TypeInt, NotNull: true},
		{Name: "owner", Type: TypeString, NotNull: true},
		{Name: "balance", Type: TypeFloat},
		{Name: "active", Type: TypeBool, Default: true},
		{Name: "opened", Type: TypeTime},
		{Name: "note", Type: TypeBytes},
	}, "id")
	must(err)
	events, err := NewSchema("events", []Column{
		{Name: "seq", Type: TypeInt, NotNull: true},
		{Name: "kind", Type: TypeString, Default: "tick"},
		{Name: "at", Type: TypeTime},
	})
	must(err)
	account := func(id int, owner string) Row {
		var note Value
		if id%3 == 0 {
			note = []byte{byte(id), 0x00, 0xff}
		}
		var balance Value = float64(id) * 10.25
		if id%5 == 0 {
			balance = nil
		}
		return Row{int64(id), owner, balance, id%2 == 0, goldenTime(1 + id%27), note}
	}

	// Phase 1: everything up to the checkpoint.
	must(e.CreateTable(accounts))
	must(e.CreateTable(events))
	must(e.CreateIndex(IndexInfo{Name: "accounts_owner", Table: "accounts", Columns: []string{"owner"}, Kind: IndexHash}))
	must(e.CreateIndex(IndexInfo{Name: "accounts_balance", Table: "accounts", Columns: []string{"balance", "id"}, Kind: IndexBTree}))
	owners := []string{"ada", "grace", "edsger", "barbara"}
	var rids []RID
	for batch := 0; batch < 3; batch++ {
		var rows []Row
		for i := 0; i < 4; i++ {
			id := batch*4 + i + 1
			rows = append(rows, account(id, owners[id%len(owners)]))
		}
		rids = append(rids, mustInsert(t, e, "accounts", rows...)...)
	}
	mustInsert(t, e, "events",
		Row{int64(1), "open", goldenTime(1)}, Row{int64(2), nil, goldenTime(2)}, Row{int64(3), "close", nil})
	seq("acct", 3)
	seq("evt", 2)
	must(e.Update(func(tx *Tx) error {
		if err := tx.DeleteRID("accounts", rids[1]); err != nil {
			return err
		}
		_, err := tx.UpdateRID("accounts", rids[2], account(3, "renamed"))
		return err
	}))
	must(e.Checkpoint())

	// Phase 2: the WAL tail.
	scratch, err := NewSchema("scratch", []Column{
		{Name: "k", Type: TypeString, NotNull: true},
		{Name: "v", Type: TypeInt},
	}, "k")
	must(err)
	must(e.CreateTable(scratch))
	must(e.CreateIndex(IndexInfo{Name: "scratch_v", Table: "scratch", Columns: []string{"v"}, Unique: true, Kind: IndexBTree}))
	mustInsert(t, e, "scratch", Row{"a", int64(1)}, Row{"b", int64(2)}, Row{"c", nil})
	seq("acct", 1)
	seq("tmp", 2)
	var late []RID
	must(e.Update(func(tx *Tx) error {
		for id := 13; id <= 14; id++ {
			rid, err := tx.Insert("accounts", account(id, owners[id%len(owners)]))
			if err != nil {
				return err
			}
			late = append(late, rid)
		}
		if err := tx.DeleteRID("accounts", rids[5]); err != nil {
			return err
		}
		if _, err := tx.UpdateRID("accounts", rids[7], account(8, "moved")); err != nil {
			return err
		}
		_, err := tx.Insert("events", Row{int64(4), "multi", goldenTime(4)})
		return err
	}))
	must(e.DropIndex("accounts", "accounts_balance"))
	must(e.CreateIndex(IndexInfo{Name: "events_kind", Table: "events", Columns: []string{"kind"}, Kind: IndexHash}))
	// One transaction writes scratch and accounts and commits only after
	// scratch is dropped: its frame follows the drop frame in the log.
	straddle := e.Begin()
	_, err = straddle.Insert("scratch", Row{"late", int64(9)})
	must(err)
	_, err = straddle.Insert("accounts", account(15, "straddle"))
	must(err)
	must(e.DropTable("scratch"))
	must(straddle.Commit())
	must(e.Update(func(tx *Tx) error {
		if err := tx.DeleteRID("accounts", late[0]); err != nil {
			return err
		}
		_, err := tx.Insert("events", Row{int64(5), "last", goldenTime(5)})
		return err
	}))
	seq("evt", 1)
}

// listState renders everything recovery is answerable for — tables,
// index definitions, COUNTs, visible rows by RID, sequences — and, as it
// goes, probes every index for every visible row.
func listState(t testing.TB, e *Engine) string {
	t.Helper()
	var b strings.Builder
	for _, name := range e.Tables() {
		s, err := e.Schema(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "table %s pk=%v\n", s.Name, s.PrimaryKey)
		for _, c := range s.Columns {
			fmt.Fprintf(&b, "  column %s %s notnull=%v default=%s\n", c.Name, c.Type, c.NotNull, FormatValue(c.Default))
		}
		infos, err := e.Indexes(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range infos {
			fmt.Fprintf(&b, "  index %s %s %v unique=%v\n", ix.Name, ix.Kind, ix.Columns, ix.Unique)
		}
		err = e.View(func(tx *Tx) error {
			n, err := tx.Count(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "  count %d\n", n)
			type entry struct {
				rid RID
				row Row
			}
			var rows []entry
			if err := tx.Scan(name, func(rid RID, row Row) bool {
				rows = append(rows, entry{rid, row})
				return true
			}); err != nil {
				return err
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].rid < rows[j].rid })
			for _, r := range rows {
				cells := make([]string, len(r.row))
				for i, v := range r.row {
					cells[i] = FormatValue(v)
				}
				fmt.Fprintf(&b, "  rid %d: %s\n", r.rid, strings.Join(cells, " | "))
				for _, ix := range infos {
					key := make([]Value, len(ix.Columns))
					for i, c := range ix.Columns {
						pos, _ := s.ColumnIndex(c)
						key[i] = r.row[pos]
					}
					found := false
					if err := tx.LookupEqual(name, ix.Name, key, func(rid RID, _ Row) bool {
						found = found || rid == r.rid
						return true
					}); err != nil {
						return err
					}
					if !found {
						t.Errorf("table %s: index %s does not find rid %d", name, ix.Name, r.rid)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	e.seqMu.Lock()
	names := make([]string, 0, len(e.seqs))
	for name := range e.seqs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "sequence %s = %d\n", name, e.seqs[name])
	}
	e.seqMu.Unlock()
	return b.String()
}

func copyDataDir(t testing.TB, from, to string) {
	t.Helper()
	for _, name := range []string{snapshotFile, walFile} {
		raw, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoversParentDataDir opens a copy of the data directory the
// parent commit wrote and compares what it recovers with the listing the
// parent recovered; then it runs the same statement stream on this
// commit and requires the snapshot and the WAL to be the parent's bytes.
func TestRecoversParentDataDir(t *testing.T) {
	want, err := os.ReadFile(parentDataDir + ".listing")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDataDir(t, parentDataDir, dir)
	e := openDir(t, dir, SyncBuffered)
	if got := listState(t, e); got != string(want) {
		t.Errorf("recovered state differs from the parent's listing\n--- got\n%s--- want\n%s", got, want)
	}
	// The recovered engine keeps working on top of the parent's files.
	mustInsert(t, e, "events", Row{int64(6), "post", goldenTime(6)})
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := t.TempDir()
	e = openDir(t, fresh, SyncBuffered)
	goldenStream(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{snapshotFile, walFile} {
		got, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		parent, err := os.ReadFile(filepath.Join(parentDataDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, parent) {
			t.Errorf("%s written by this commit differs from the parent's for the same statement stream (%d vs %d bytes)", name, len(got), len(parent))
		}
	}
	// Every record kind must be in the tail, or the golden proves less
	// than it says.
	kinds := map[byte]int{}
	for _, payload := range goldenPayloads(t) {
		kinds[payload[0]]++
	}
	for _, k := range []byte{recCreateTable, recDropTable, recCreateIndex, recDropIndex, recSequence, recCommit} {
		if kinds[k] == 0 {
			t.Errorf("golden WAL tail holds no %q record", k)
		}
	}
}

// testdata/negzero_datadir was written by commit 6b697bd, whose keys
// kept -0.0 apart from 0.0: the checkpoint holds points(id, f) with a
// unique hash index on f over 0.0, -0.0 and 1.5, and the WAL tail holds
// marks, whose FLOAT primary key got -0.0 and then 0.0. Both indexes
// now hold two rows under one key. The directory opens with every row
// and sign intact, index and scan agree, an equal insert is refused,
// and the broken constraints are counted.
const negZeroDataDir = "testdata/negzero_datadir"

func TestRecoversNegZeroUniqueDuplicate(t *testing.T) {
	dir := t.TempDir()
	copyDataDir(t, negZeroDataDir, dir)
	before := mRecoveredDuplicates.Value()
	e := openDir(t, dir, SyncBuffered)
	defer e.Close()
	if got := mRecoveredDuplicates.Value() - before; got != 2 {
		t.Errorf("recovered unique violations counted = %d, want 2 (points_f, marks_pkey)", got)
	}
	for _, c := range []struct{ table, index, col string }{
		{"points", "points_f", "f"},
		{"marks", "marks_pkey", "f"},
	} {
		var viaIndex, viaScan []string
		err := e.View(func(tx *Tx) error {
			s, err := e.Schema(c.table)
			if err != nil {
				return err
			}
			col, _ := s.ColumnIndex(c.col)
			show := func(row Row) string { return fmt.Sprint(math.Signbit(row[col].(float64)), row) }
			if err := tx.LookupEqual(c.table, c.index, []Value{0.0}, func(_ RID, row Row) bool {
				viaIndex = append(viaIndex, show(row))
				return true
			}); err != nil {
				return err
			}
			return tx.Scan(c.table, func(_ RID, row Row) bool {
				if Compare(row[col], 0.0) == 0 {
					viaScan = append(viaScan, show(row))
				}
				return true
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(viaIndex)
		sort.Strings(viaScan)
		if len(viaScan) != 2 || !slices.Equal(viaIndex, viaScan) {
			t.Errorf("%s = 0: index %v, scan %v; want the same two rows, one with the sign bit", c.index, viaIndex, viaScan)
		}
	}
	err := e.Update(func(tx *Tx) error {
		_, err := tx.Insert("points", Row{int64(4), 0.0})
		return err
	})
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("insert of a third 0.0 under points_f: err = %v, want ErrDuplicate", err)
	}
}
