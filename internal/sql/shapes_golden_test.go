package sql

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current executor")

// shapesDB builds the fixed dataset the golden runs over. orders spans
// several executor blocks (700 rows against execBatchRows = 256), some
// orders carry a NULL or dangling cust_id, some customers have no
// orders or no region, and one region has no customers — so every join
// kind meets both matched and NULL-extended rows.
func shapesDB(t testing.TB) *DB {
	t.Helper()
	e := storage.MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	db := NewDB(e)
	mustExec(t, db, `CREATE TABLE region (id INT PRIMARY KEY, name TEXT NOT NULL)`)
	mustExec(t, db, `CREATE TABLE cust (id INT PRIMARY KEY, name TEXT NOT NULL, region_id INT, tier TEXT)`)
	mustExec(t, db, `CREATE TABLE orders (
		id INT PRIMARY KEY, cust_id INT, qty INT, amount FLOAT, status TEXT, day INT)`)
	mustExec(t, db, `CREATE TABLE empty_t (id INT PRIMARY KEY, v FLOAT)`)
	mustExec(t, db, `CREATE INDEX orders_cust ON orders (cust_id) USING HASH`)
	mustExec(t, db, `CREATE INDEX orders_day ON orders (day)`)

	rng := rand.New(rand.NewSource(14))
	for i, name := range []string{"north", "south", "east", "west", "nowhere"} {
		mustExec(t, db, `INSERT INTO region VALUES (?, ?)`, int64(i+1), name)
	}
	tiers := []string{"gold", "silver", "bronze"}
	for id := 1; id <= 40; id++ {
		var region storage.Value
		if id%9 != 0 {
			region = int64(rng.Intn(4) + 1) // region 5 stays empty
		}
		mustExec(t, db, `INSERT INTO cust VALUES (?, ?, ?, ?)`,
			int64(id), fmt.Sprintf("c%02d", id), region, tiers[rng.Intn(len(tiers))])
	}
	statuses := []string{"open", "paid", "void"}
	for id := 1; id <= 700; id++ {
		var cust storage.Value
		switch {
		case id%41 == 0: // NULL foreign key
		case id%53 == 0:
			cust = int64(99) // dangling foreign key
		default:
			cust = int64(rng.Intn(32) + 1) // customers 33..40 never order
		}
		mustExec(t, db, `INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?)`,
			int64(id), cust, int64(rng.Intn(9)+1), float64(rng.Intn(4000))/4,
			statuses[rng.Intn(len(statuses))], int64(rng.Intn(60)))
	}
	return db
}

type shapeCase struct {
	name string
	sql  string
	args []storage.Value
}

var shapeCases = []shapeCase{
	{"filtered full scan", `SELECT id, qty, amount FROM orders WHERE qty >= 8 AND status = 'paid'`, nil},
	{"filtered full scan no survivors", `SELECT id FROM orders WHERE qty > 100`, nil},
	{"index eq literal", `SELECT id, amount FROM orders WHERE cust_id = 7`, nil},
	{"index eq param", `SELECT id, amount FROM orders WHERE cust_id = ? AND qty < 5`, []storage.Value{int64(12)}},
	{"index eq primary key", `SELECT * FROM orders WHERE id = 512`, nil},
	{"index eq no match", `SELECT id FROM orders WHERE cust_id = 1000`, nil},
	{"index eq non-evaluable key", `SELECT id FROM orders WHERE cust_id = 1 / 0`, nil},
	{"index range both bounds", `SELECT id, day FROM orders WHERE day >= 10 AND day < 13`, nil},
	{"index range open above", `SELECT id, day FROM orders WHERE day > 57`, nil},
	{"index range param", `SELECT COUNT(*), SUM(amount) FROM orders WHERE day < ?`, []storage.Value{int64(5)}},
	{"inner hash join", `SELECT o.id, c.name FROM orders o JOIN cust c ON o.cust_id = c.id WHERE o.qty = 9`, nil},
	{"inner nested-loop join", `SELECT o.id, c.id FROM orders o JOIN cust c ON o.cust_id < c.id AND c.id > 38 WHERE o.id <= 6`, nil},
	{"left hash join", `SELECT c.id, c.name, o.id FROM cust c LEFT JOIN orders o ON o.cust_id = c.id WHERE c.id >= 30`, nil},
	{"left nested-loop join", `SELECT c.id, r.name FROM cust c LEFT JOIN region r ON r.id = c.region_id AND r.id <> 2 WHERE c.id <= 12`, nil},
	{"left join right side filtered to null", `SELECT c.id FROM cust c LEFT JOIN orders o ON o.cust_id = c.id WHERE o.id IS NULL`, nil},
	{"cross join", `SELECT r.name, c.tier FROM region r CROSS JOIN cust c WHERE c.id <= 2`, nil},
	{"left join group by having", `SELECT r.name, COUNT(c.id) AS n, MIN(c.name) FROM region r LEFT JOIN cust c ON c.region_id = r.id GROUP BY r.name HAVING COUNT(c.id) <> 10 ORDER BY r.name`, nil},
	{"left join group on null-extended key", `SELECT o.status, COUNT(*), COUNT(o.id), SUM(o.amount) FROM cust c LEFT JOIN orders o ON o.cust_id = c.id GROUP BY o.status`, nil},
	{"group by first-seen order", `SELECT status, COUNT(*), SUM(qty), AVG(amount), MIN(day), MAX(day) FROM orders GROUP BY status`, nil},
	{"group by expression and position", `SELECT day % 7 AS dow, COUNT(DISTINCT cust_id) FROM orders GROUP BY 1 ORDER BY dow`, nil},
	{"group representative non-key column", `SELECT cust_id, id, COUNT(*) FROM orders WHERE cust_id <= 3 GROUP BY cust_id`, nil},
	{"aggregate over zero rows", `SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM empty_t`, nil},
	{"aggregate over zero rows bare column", `SELECT id, COUNT(*) FROM empty_t`, nil},
	{"aggregate over zero rows filtered", `SELECT COUNT(*), SUM(amount) FROM orders WHERE qty > 100`, nil},
	{"aggregate over zero rows group by", `SELECT status, COUNT(*) FROM orders WHERE qty > 100 GROUP BY status`, nil},
	{"aggregate over zero rows having", `SELECT COUNT(*) FROM empty_t HAVING COUNT(*) > 0`, nil},
	{"correlated scalar subquery", `SELECT c.id, (SELECT COUNT(*) FROM orders o WHERE o.cust_id = c.id) AS n FROM cust c WHERE c.id >= 28 ORDER BY c.id`, nil},
	{"correlated exists", `SELECT c.id FROM cust c WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.cust_id = c.id)`, nil},
	{"correlated subquery under join", `SELECT c.id, r.name FROM cust c JOIN region r ON r.id = c.region_id WHERE c.id <= 10 AND (SELECT MAX(o.qty) FROM orders o WHERE o.cust_id = c.id AND o.day < r.id * 10) >= 9`, nil},
	{"in subquery", `SELECT id FROM cust WHERE id IN (SELECT cust_id FROM orders WHERE amount > 990)`, nil},
	{"three-table join", `SELECT r.name, c.name, o.id FROM orders o JOIN cust c ON o.cust_id = c.id JOIN region r ON c.region_id = r.id WHERE o.amount > 980 ORDER BY o.id`, nil},
	{"three-table left join aggregate", `SELECT r.name, COUNT(o.id), SUM(o.amount) FROM region r LEFT JOIN cust c ON c.region_id = r.id LEFT JOIN orders o ON o.cust_id = c.id GROUP BY r.name`, nil},
	{"distinct order limit offset", `SELECT DISTINCT cust_id, status FROM orders ORDER BY cust_id DESC, status LIMIT 7 OFFSET 3`, nil},
	{"order by expression not projected", `SELECT id FROM orders WHERE day = 3 ORDER BY amount DESC, id LIMIT 5`, nil},
	{"limit param past end", `SELECT id FROM region ORDER BY id LIMIT ? OFFSET ?`, []storage.Value{int64(10), int64(3)}},
	{"union", `SELECT tier FROM cust UNION SELECT status FROM orders`, nil},
	{"union all order limit", `SELECT id, 'c' AS src FROM cust WHERE id <= 3 UNION ALL SELECT id, 'r' FROM region ORDER BY 1 DESC, src LIMIT 6`, nil},
	{"select star over join", `SELECT * FROM cust c JOIN region r ON r.id = c.region_id WHERE c.id <= 4`, nil},
	{"table star over left join", `SELECT r.*, c.id FROM cust c LEFT JOIN region r ON r.id = c.region_id WHERE c.id BETWEEN 8 AND 10`, nil},
	{"select without from", `SELECT 1 + 1, UPPER('x')`, nil},
	{"select without from filtered out", `SELECT 1 WHERE 1 = 2`, nil},
	{"error unknown column in filter", `SELECT id FROM orders WHERE nosuch = 1`, nil},
	{"error ambiguous column over join", `SELECT id FROM cust c JOIN region r ON r.id = c.region_id`, nil},
	{"error in join key", `SELECT o.id FROM orders o JOIN cust c ON o.cust_id = c.id / 0`, nil},
}

func renderShape(db *DB, c shapeCase) (string, []string) {
	var b strings.Builder
	fmt.Fprintf(&b, "sql: %s\n", c.sql)
	if len(c.args) > 0 {
		fmt.Fprintf(&b, "args: %v\n", c.args)
	}
	res, err := db.QueryContext(context.Background(), c.sql, c.args...)
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
		return b.String(), nil
	}
	rows := rowsAsStrings(res)
	fmt.Fprintf(&b, "plan: %s\ncolumns: %s\n", res.Plan, strings.Join(res.Columns, "|"))
	for _, r := range rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(rows))
	return b.String(), rows
}

// TestSelectShapesGolden pins what every SELECT shape the executor has
// a distinct code path for returns — values, column names, row order
// and Result.Plan — over shapesDB, once with indexes and once with
// DisableIndexes. The golden file was generated at the commit before
// the executor moved from column-major batches to blocks of row
// references and must not change with executor internals; regenerate
// with `go test ./internal/sql -run SelectShapesGolden -update` only
// when a change means to alter results.
func TestSelectShapesGolden(t *testing.T) {
	db := shapesDB(t)
	var got bytes.Buffer
	for _, c := range shapeCases {
		db.DisableIndexes = false
		indexed, indexedRows := renderShape(db, c)
		db.DisableIndexes = true
		scanned, scannedRows := renderShape(db, c)
		fmt.Fprintf(&got, "-- %s\n%s-- %s [DisableIndexes]\n%s\n", c.name, indexed, c.name, scanned)

		// Access paths may order rows differently; they may not return
		// different rows.
		sort.Strings(indexedRows)
		sort.Strings(scannedRows)
		if strings.Join(indexedRows, "\n") != strings.Join(scannedRows, "\n") {
			t.Errorf("%s: index path and forced scan return different rows", c.name)
		}
	}
	path := filepath.Join("testdata", "select_shapes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
