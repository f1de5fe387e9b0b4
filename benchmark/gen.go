package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/odbis/odbis/internal/storage"
)

// The generator is the only source of inputs: rows, statement streams
// and the totals the checks compare against all derive from -seed. The
// platform sees generated statements, never the seed.

var (
	regions    = []string{"north", "south", "east", "west", "centre", "coast", "islands", "overseas"}
	categories = []string{"toys", "electronics", "grocery", "clothing", "sports", "garden"}
)

// maxQty bounds qty to [1, maxQty]; filtered aggregates draw their
// threshold from [0, maxQty-1] so every threshold keeps some rows.
const maxQty = 9

const (
	salesDDL   = "CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, category TEXT, qty INT, amount FLOAT)"
	salesIndex = "CREATE INDEX sales_region ON sales (region)"
	pointSQL   = "SELECT id, region, amount FROM sales WHERE id = ?"
	insertSQL  = "INSERT INTO sales (id, region, category, qty, amount) VALUES (?, ?, ?, ?, ?)"
	countSQL   = "SELECT COUNT(*) FROM sales"
)

// salesRow is one row of the base table.
type salesRow struct {
	id       int64
	region   int // index into regions
	category int // index into categories
	qty      int64
	amount   float64
}

func (r salesRow) values() []storage.Value {
	return []storage.Value{r.id, regions[r.region], categories[r.category], r.qty, r.amount}
}

// userBytes is the encoded size of the row's values: fixed-width
// numbers plus the string bytes. It is the denominator of
// disk_bytes_per_user_byte.
func (r salesRow) userBytes() int {
	return 8 + len(regions[r.region]) + len(categories[r.category]) + 8 + 8
}

func drawRow(rng *rand.Rand, id int64) salesRow {
	return salesRow{
		id:       id,
		region:   rng.Intn(len(regions)),
		category: rng.Intn(len(categories)),
		qty:      int64(1 + rng.Intn(maxQty)),
		amount:   float64(rng.Intn(50000)) / 100,
	}
}

// streamSeed derives an independent rand stream from the run seed. The
// salt separates data, warm-up and per-client streams, so changing the
// client count never changes the data.
func streamSeed(seed int64, salt string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, salt, n)
	return int64(h.Sum64() >> 1)
}

// aggQuery is one aggregate statement shape. group is "region",
// "category" or "" (one row); aggs lists output expressions in order;
// filtered adds "WHERE qty > ?".
type aggQuery struct {
	group    string
	aggs     []string // "sum_amount", "sum_qty", "count"
	filtered bool
}

func (q aggQuery) sql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.group != "" {
		b.WriteString(q.group + ", ")
	}
	for i, a := range q.aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		switch a {
		case "sum_amount":
			b.WriteString("SUM(amount)")
		case "sum_qty":
			b.WriteString("SUM(qty)")
		default:
			b.WriteString("COUNT(*)")
		}
	}
	b.WriteString(" FROM sales")
	if q.filtered {
		b.WriteString(" WHERE qty > ?")
	}
	if q.group != "" {
		b.WriteString(" GROUP BY " + q.group + " ORDER BY " + q.group)
	}
	return b.String()
}

// dashQueries are the four workload.ReadQueries shapes over sales: two
// GROUP BY rollups, one filtered GROUP BY, one COUNT(*).
var dashQueries = []aggQuery{
	{group: "region", aggs: []string{"sum_amount"}},
	{group: "category", aggs: []string{"sum_qty", "sum_amount"}},
	{group: "region", aggs: []string{"count"}, filtered: true},
	{aggs: []string{"count"}},
}

// tenantQueries are the eight distinct aggregate texts of tenants64.bin:
// 64 tenants x 8 texts = 512 (tenant, SQL) plan-cache keys.
var tenantQueries = append(append([]aggQuery{}, dashQueries...),
	aggQuery{group: "category", aggs: []string{"count"}},
	aggQuery{group: "region", aggs: []string{"sum_qty"}},
	aggQuery{aggs: []string{"sum_amount"}, filtered: true},
	aggQuery{group: "category", aggs: []string{"sum_amount"}, filtered: true},
)

// dataset is one tenant's generated table plus the answers to the
// aggregate statements the workload will send, folded from the same
// rows in the same order the engine scans them.
type dataset struct {
	rows  []salesRow
	bytes int
	// answers is filled by freeze and read-only afterwards, so the
	// client goroutines share it without a lock.
	answers map[answerKey][]storage.Row
	// total is SUM(amount) over the table, the dashboard's KPI.
	total float64
}

type answerKey struct {
	sql       string
	threshold int64
}

func newDataset(seed int64, tenant, n int) *dataset {
	d := &dataset{rows: make([]salesRow, 0, n)}
	rng := rand.New(rand.NewSource(streamSeed(seed, "data", tenant)))
	for i := 0; i < n; i++ {
		d.add(drawRow(rng, int64(i+1)))
	}
	return d
}

func (d *dataset) add(r salesRow) {
	d.rows = append(d.rows, r)
	d.bytes += r.userBytes()
}

// freeze computes the answer to every (statement, threshold) pair the
// workload can draw.
func (d *dataset) freeze(queries []aggQuery) {
	d.answers = make(map[answerKey][]storage.Row)
	d.total = d.fold(aggQuery{aggs: []string{"sum_amount"}}, 0)[0][0].(float64)
	for _, q := range queries {
		last := int64(0)
		if q.filtered {
			last = maxQty - 1
		}
		for k := int64(0); k <= last; k++ {
			d.answers[answerKey{q.sql(), k}] = d.fold(q, k)
		}
	}
}

// fold computes the rows q must return: groups in name order (the
// statement's ORDER BY), empty groups absent.
func (d *dataset) fold(q aggQuery, threshold int64) []storage.Row {
	names := []string{""}
	switch q.group {
	case "region":
		names = regions
	case "category":
		names = categories
	}
	sums := make([][]float64, len(names))
	seen := make([]bool, len(names))
	for i := range sums {
		sums[i] = make([]float64, len(q.aggs))
	}
	for _, r := range d.rows {
		if q.filtered && r.qty <= threshold {
			continue
		}
		g := 0
		switch q.group {
		case "region":
			g = r.region
		case "category":
			g = r.category
		}
		seen[g] = true
		for i, a := range q.aggs {
			switch a {
			case "sum_amount":
				sums[g][i] += r.amount
			case "sum_qty":
				sums[g][i] += float64(r.qty)
			default:
				sums[g][i]++
			}
		}
	}
	var out []storage.Row
	for g, name := range names {
		if q.group != "" && !seen[g] {
			continue
		}
		row := make(storage.Row, 0, 1+len(q.aggs))
		if q.group != "" {
			row = append(row, name)
		}
		for _, v := range sums[g] {
			row = append(row, v)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := out[i][0].(string)
		b, _ := out[j][0].(string)
		return a < b
	})
	return out
}

// sameRows compares a door's result with the expected rows. Numbers
// compare as float64 within a relative 1e-9 (JSON and the wire protocol
// carry ints and floats differently; float sums depend on fold order).
// With atLeast, numeric cells may exceed the expectation: the check for
// aggregates read while inserts are running.
func sameRows(got []storage.Row, want []storage.Row, atLeast bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: got %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if ws, ok := want[i][j].(string); ok {
				if gs, _ := got[i][j].(string); gs != ws {
					return fmt.Errorf("row %d col %d: got %v, want %q", i, j, got[i][j], ws)
				}
				continue
			}
			w := want[i][j].(float64)
			g, ok := number(got[i][j])
			if !ok {
				return fmt.Errorf("row %d col %d: got %T, want a number", i, j, got[i][j])
			}
			tol := 1e-9 * math.Max(1, math.Abs(w))
			if g < w-tol || (!atLeast && g > w+tol) {
				return fmt.Errorf("row %d col %d: got %v, want %v", i, j, g, w)
			}
		}
	}
	return nil
}

func number(v storage.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}
