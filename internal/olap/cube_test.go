package olap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

// starFixture creates a small retail star schema:
//
//	dim_date(id, year, month), dim_store(id, region, city),
//	fact_sales(date_id, store_id, channel, amount, qty)
//
// with deterministic data, and returns the engine plus the cube spec.
func starFixture(t testing.TB, facts int) (*storage.Engine, CubeSpec) {
	t.Helper()
	e := storage.MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	db := sql.NewDB(e)
	mustExec := func(q string, args ...storage.Value) {
		if _, err := db.QueryContext(context.Background(), q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE dim_date (id INT PRIMARY KEY, year INT, month INT)`)
	mustExec(`CREATE TABLE dim_store (id INT PRIMARY KEY, region TEXT, city TEXT)`)
	mustExec(`CREATE TABLE fact_sales (date_id INT, store_id INT, channel TEXT, amount FLOAT, qty INT)`)
	// 24 dates: 2025-2026 × 12 months.
	id := 1
	for _, y := range []int{2025, 2026} {
		for m := 1; m <= 12; m++ {
			mustExec("INSERT INTO dim_date VALUES (?, ?, ?)", id, y, m)
			id++
		}
	}
	stores := []struct {
		region, city string
	}{
		{"north", "lille"}, {"north", "paris"}, {"south", "lyon"}, {"south", "nice"},
	}
	for i, s := range stores {
		mustExec("INSERT INTO dim_store VALUES (?, ?, ?)", i+1, s.region, s.city)
	}
	rng := rand.New(rand.NewSource(1))
	err := e.Update(func(tx *storage.Tx) error {
		for i := 0; i < facts; i++ {
			channel := "web"
			if rng.Intn(2) == 0 {
				channel = "shop"
			}
			row := storage.Row{
				int64(rng.Intn(24) + 1),
				int64(rng.Intn(4) + 1),
				channel,
				float64(rng.Intn(1000)) / 10,
				int64(rng.Intn(5) + 1),
			}
			if _, err := tx.Insert("fact_sales", row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := CubeSpec{
		Name:      "Sales",
		FactTable: "fact_sales",
		Measures: []MeasureSpec{
			{Name: "amount", Column: "amount", Agg: AggSum},
			{Name: "qty", Column: "qty", Agg: AggSum},
			{Name: "orders", Agg: AggCount},
			{Name: "avg_amount", Column: "amount", Agg: AggAvg},
		},
		Dimensions: []DimensionSpec{
			{Name: "Date", Table: "dim_date", Key: "id", FactFK: "date_id",
				Levels: []LevelSpec{{Name: "Year", Column: "year"}, {Name: "Month", Column: "month"}}},
			{Name: "Store", Table: "dim_store", Key: "id", FactFK: "store_id",
				Levels: []LevelSpec{{Name: "Region", Column: "region"}, {Name: "City", Column: "city"}}},
			{Name: "Channel", Levels: []LevelSpec{{Name: "Channel", Column: "channel"}}},
		},
	}
	return e, spec
}

func TestSpecValidate(t *testing.T) {
	bad := []CubeSpec{
		{},
		{Name: "c", FactTable: "f"},
		{Name: "c", FactTable: "f", Measures: []MeasureSpec{{Name: "m", Agg: "median", Column: "x"}}},
		{Name: "c", FactTable: "f", Measures: []MeasureSpec{{Name: "m", Agg: AggSum}}},
		{Name: "c", FactTable: "f", Measures: []MeasureSpec{{Name: "m", Agg: AggSum, Column: "x"}, {Name: "m", Agg: AggSum, Column: "x"}}},
		{Name: "c", FactTable: "f",
			Measures:   []MeasureSpec{{Name: "m", Agg: AggCount}},
			Dimensions: []DimensionSpec{{Name: "d"}}},
		{Name: "c", FactTable: "f",
			Measures:   []MeasureSpec{{Name: "m", Agg: AggCount}},
			Dimensions: []DimensionSpec{{Name: "d", Table: "t", Levels: []LevelSpec{{Name: "l", Column: "c"}}}}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestBuildAndIntrospect(t *testing.T) {
	e, spec := starFixture(t, 500)
	cube, err := Build(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cube.Rows() != 500 {
		t.Errorf("rows = %d", cube.Rows())
	}
	if got := cube.Dimensions(); len(got) != 3 || got[0] != "Date" {
		t.Errorf("dimensions = %v", got)
	}
	levels, err := cube.Levels("store")
	if err != nil || len(levels) != 2 || levels[0] != "Region" {
		t.Errorf("levels = %v (%v)", levels, err)
	}
	members, err := cube.Members("Store", "Region")
	if err != nil || len(members) != 2 {
		t.Fatalf("members = %v (%v)", members, err)
	}
	if members[0] != "north" || members[1] != "south" {
		t.Errorf("members = %v", members)
	}
	years, _ := cube.Members("Date", "Year")
	if len(years) != 2 {
		t.Errorf("years = %v", years)
	}
}

func TestBuildErrors(t *testing.T) {
	e, spec := starFixture(t, 10)
	bad := spec
	bad.FactTable = "missing"
	if _, err := Build(context.Background(), e, bad); err == nil {
		t.Error("missing fact table accepted")
	}
	bad = spec
	bad.Measures = []MeasureSpec{{Name: "m", Column: "channel", Agg: AggSum}}
	if _, err := Build(context.Background(), e, bad); err == nil {
		t.Error("non-numeric measure accepted")
	}
	bad = spec
	bad.Dimensions = append([]DimensionSpec(nil), spec.Dimensions...)
	bad.Dimensions[0].FactFK = "ghost"
	if _, err := Build(context.Background(), e, bad); err == nil {
		t.Error("missing fk column accepted")
	}
}

func TestQueryTotals(t *testing.T) {
	e, spec := starFixture(t, 300)
	cube, err := Build(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.Execute(context.Background(), Query{Measures: []string{"orders", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RowHeaders) != 1 || len(res.ColHeaders) != 1 {
		t.Fatalf("headers = %d × %d", len(res.RowHeaders), len(res.ColHeaders))
	}
	cell, ok := res.Cell(0, 0)
	if !ok {
		t.Fatal("total cell empty")
	}
	if cell[0] != 300 {
		t.Errorf("orders = %v", cell[0])
	}
	// Compare against SQL.
	db := sql.NewDB(e)
	r, _ := db.QueryContext(context.Background(), "SELECT SUM(amount) FROM fact_sales")
	want := r.Rows[0][0].(float64)
	if math.Abs(cell[1]-want) > 1e-9 {
		t.Errorf("amount = %v, want %v", cell[1], want)
	}
}

// The central correctness property: cube aggregation agrees with naïve
// SQL GROUP BY recomputation across axes and filters.
func TestCubeAgainstSQL(t *testing.T) {
	e, spec := starFixture(t, 1000)
	cube, err := Build(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	db := sql.NewDB(e)

	// Group by region × year, sum(amount).
	res, err := cube.Execute(context.Background(), Query{
		Rows:     []LevelRef{{Dimension: "Store", Level: "Region"}},
		Cols:     []LevelRef{{Dimension: "Date", Level: "Year"}},
		Measures: []string{"amount"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sqlRes, err := db.QueryContext(context.Background(), `
		SELECT s.region, d.year, SUM(f.amount)
		FROM fact_sales f
		JOIN dim_store s ON f.store_id = s.id
		JOIN dim_date d ON f.date_id = d.id
		GROUP BY s.region, d.year`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, row := range sqlRes.Rows {
		key := fmt.Sprintf("%v|%v", row[0], row[1])
		want[key] = row[2].(float64)
	}
	count := 0
	for i, rt := range res.RowHeaders {
		for j, ct := range res.ColHeaders {
			cell, ok := res.Cell(i, j)
			key := fmt.Sprintf("%v|%v", rt[0], ct[0])
			if !ok {
				if _, exists := want[key]; exists {
					t.Errorf("cube missing cell %s", key)
				}
				continue
			}
			count++
			if w, exists := want[key]; !exists || math.Abs(cell[0]-w) > 1e-6 {
				t.Errorf("cell %s = %v, want %v", key, cell[0], w)
			}
		}
	}
	if count != len(want) {
		t.Errorf("cube has %d cells, SQL %d groups", count, len(want))
	}
}

func TestSliceDice(t *testing.T) {
	e, spec := starFixture(t, 800)
	cube, _ := Build(context.Background(), e, spec)
	db := sql.NewDB(e)

	q := Query{
		Rows:     []LevelRef{{Dimension: "Store", Level: "City"}},
		Measures: []string{"qty"},
	}.Slice("Date", "Year", 2026).Dice("Channel", "Channel", "web")

	res, err := cube.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	sqlRes, _ := db.QueryContext(context.Background(), `
		SELECT s.city, SUM(f.qty)
		FROM fact_sales f
		JOIN dim_store s ON f.store_id = s.id
		JOIN dim_date d ON f.date_id = d.id
		WHERE d.year = 2026 AND f.channel = 'web'
		GROUP BY s.city ORDER BY s.city`)
	if len(res.RowHeaders) != len(sqlRes.Rows) {
		t.Fatalf("cities: cube %d, sql %d", len(res.RowHeaders), len(sqlRes.Rows))
	}
	for i, row := range sqlRes.Rows {
		if fmt.Sprint(res.RowHeaders[i][0]) != fmt.Sprint(row[0]) {
			t.Errorf("row %d header %v vs %v", i, res.RowHeaders[i][0], row[0])
		}
		cell, _ := res.Cell(i, 0)
		if int64(cell[0]) != row[1].(int64) {
			t.Errorf("city %v qty = %v, want %v", row[0], cell[0], row[1])
		}
	}
}

func TestDrillRollPivot(t *testing.T) {
	e, spec := starFixture(t, 400)
	cube, _ := Build(context.Background(), e, spec)

	base := Query{Rows: []LevelRef{{Dimension: "Store", Level: "Region"}}, Measures: []string{"orders"}}
	drilled := base.DrillDown("Store", "City")
	res, err := cube.Execute(context.Background(), drilled)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RowHeaders) != 4 { // 4 cities under 2 regions
		t.Errorf("drilled rows = %d", len(res.RowHeaders))
	}
	if len(res.RowHeaders[0]) != 2 {
		t.Errorf("drilled tuple arity = %d", len(res.RowHeaders[0]))
	}
	rolled := drilled.RollUp("Store") // removes City
	res2, err := cube.Execute(context.Background(), rolled)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.RowHeaders) != 2 {
		t.Errorf("rolled rows = %d", len(res2.RowHeaders))
	}
	// Totals must be preserved across roll-up.
	if res.Grand(0) != res2.Grand(0) {
		t.Errorf("grand totals differ: %v vs %v", res.Grand(0), res2.Grand(0))
	}
	// Pivot swaps axes.
	piv := Query{
		Rows: []LevelRef{{Dimension: "Store", Level: "Region"}},
		Cols: []LevelRef{{Dimension: "Date", Level: "Year"}},
	}.Pivot()
	res3, err := cube.Execute(context.Background(), piv)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.RowHeaders) != 2 || res3.RowAxes[0].Dimension != "Date" {
		t.Errorf("pivot shape: %d rows, axes %v", len(res3.RowHeaders), res3.RowAxes)
	}
}

func TestAvgMinMax(t *testing.T) {
	e := storage.MustOpenMemory()
	defer e.Close()
	db := sql.NewDB(e)
	db.QueryContext(context.Background(), "CREATE TABLE f (g TEXT, v FLOAT)")
	for i, g := range []string{"a", "a", "a", "b"} {
		db.QueryContext(context.Background(), "INSERT INTO f VALUES (?, ?)", g, float64(i+1)) // a: 1,2,3; b: 4
	}
	cube, err := Build(context.Background(), e, CubeSpec{
		Name: "c", FactTable: "f",
		Measures: []MeasureSpec{
			{Name: "avg_v", Column: "v", Agg: AggAvg},
			{Name: "min_v", Column: "v", Agg: AggMin},
			{Name: "max_v", Column: "v", Agg: AggMax},
		},
		Dimensions: []DimensionSpec{{Name: "G", Levels: []LevelSpec{{Name: "G", Column: "g"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.Execute(context.Background(), Query{Rows: []LevelRef{{Dimension: "G", Level: "G"}}})
	if err != nil {
		t.Fatal(err)
	}
	cellA, _ := res.Cell(0, 0)
	if cellA[0] != 2 || cellA[1] != 1 || cellA[2] != 3 {
		t.Errorf("a: avg/min/max = %v", cellA)
	}
	cellB, _ := res.Cell(1, 0)
	if cellB[0] != 4 || cellB[1] != 4 || cellB[2] != 4 {
		t.Errorf("b: avg/min/max = %v", cellB)
	}
}

func TestNullMeasuresAndFKs(t *testing.T) {
	e := storage.MustOpenMemory()
	defer e.Close()
	db := sql.NewDB(e)
	db.QueryContext(context.Background(), "CREATE TABLE dim (id INT PRIMARY KEY, name TEXT)")
	db.QueryContext(context.Background(), "INSERT INTO dim VALUES (1, 'x')")
	db.QueryContext(context.Background(), "CREATE TABLE f (dim_id INT, v FLOAT)")
	db.QueryContext(context.Background(), "INSERT INTO f VALUES (1, 10.0), (1, NULL), (NULL, 5.0), (99, 2.0)")
	cube, err := Build(context.Background(), e, CubeSpec{
		Name: "c", FactTable: "f",
		Measures: []MeasureSpec{
			{Name: "total", Column: "v", Agg: AggSum},
			{Name: "n", Agg: AggCount},
		},
		Dimensions: []DimensionSpec{{Name: "D", Table: "dim", Key: "id", FactFK: "dim_id",
			Levels: []LevelSpec{{Name: "Name", Column: "name"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.Execute(context.Background(), Query{Rows: []LevelRef{{Dimension: "D", Level: "Name"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Two row groups: NULL (unmatched + null FK) and "x".
	if len(res.RowHeaders) != 2 {
		t.Fatalf("rows = %d: %v", len(res.RowHeaders), res.RowHeaders)
	}
	// NULL sorts first.
	if res.RowHeaders[0][0] != nil {
		t.Errorf("first header = %v, want NULL", res.RowHeaders[0][0])
	}
	nullCell, _ := res.Cell(0, 0)
	if nullCell[0] != 7 || nullCell[1] != 2 {
		t.Errorf("null group = %v", nullCell)
	}
	xCell, _ := res.Cell(1, 0)
	if xCell[0] != 10 || xCell[1] != 2 { // NULL v skipped in sum; count counts rows
		t.Errorf("x group = %v", xCell)
	}
}

func TestCellCache(t *testing.T) {
	e, spec := starFixture(t, 500)
	cube, _ := Build(context.Background(), e, spec)
	q := Query{Rows: []LevelRef{{Dimension: "Store", Level: "Region"}}, Measures: []string{"amount"}}
	r1, err := cube.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FromCache {
		t.Error("first execution served from cache")
	}
	r2, err := cube.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.FromCache {
		t.Error("second execution not cached")
	}
	if r1.Grand(0) != r2.Grand(0) {
		t.Error("cached result differs")
	}
	hits, misses := cube.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d/%d", hits, misses)
	}
	// Disabled cache never serves cached results.
	cube.SetCache(0)
	r3, _ := cube.Execute(context.Background(), q)
	if r3.FromCache {
		t.Error("disabled cache served a result")
	}
	// Different filters must not collide in the cache.
	cube.SetCache(16)
	qa := q.Slice("Date", "Year", 2025)
	qb := q.Slice("Date", "Year", 2026)
	ra, _ := cube.Execute(context.Background(), qa)
	rb, _ := cube.Execute(context.Background(), qb)
	if ra.Grand(0) == rb.Grand(0) {
		t.Log("warning: 2025 and 2026 totals happen to be equal (unlikely)")
	}
	rb2, _ := cube.Execute(context.Background(), qb)
	if !rb2.FromCache || rb2.Grand(0) != rb.Grand(0) {
		t.Error("cache key collision or miss")
	}
}

func TestResultString(t *testing.T) {
	e, spec := starFixture(t, 100)
	cube, _ := Build(context.Background(), e, spec)
	res, _ := cube.Execute(context.Background(), Query{
		Rows:     []LevelRef{{Dimension: "Store", Level: "Region"}},
		Cols:     []LevelRef{{Dimension: "Date", Level: "Year"}},
		Measures: []string{"orders"},
	})
	s := res.String()
	if !strings.Contains(s, "north") || !strings.Contains(s, "2025") {
		t.Errorf("rendered table missing headers:\n%s", s)
	}
}

func TestUnknownRefsRejected(t *testing.T) {
	e, spec := starFixture(t, 10)
	cube, _ := Build(context.Background(), e, spec)
	if _, err := cube.Execute(context.Background(), Query{Rows: []LevelRef{{Dimension: "Ghost", Level: "X"}}}); err == nil {
		t.Error("unknown dimension accepted")
	}
	if _, err := cube.Execute(context.Background(), Query{Rows: []LevelRef{{Dimension: "Store", Level: "Ghost"}}}); err == nil {
		t.Error("unknown level accepted")
	}
	if _, err := cube.Execute(context.Background(), Query{Measures: []string{"ghost"}}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := cube.Execute(context.Background(), Query{Filters: []Filter{{Dimension: "Ghost", Level: "X"}}}); err == nil {
		t.Error("unknown filter dimension accepted")
	}
}

func TestFilterUnknownMemberYieldsEmpty(t *testing.T) {
	e, spec := starFixture(t, 50)
	cube, _ := Build(context.Background(), e, spec)
	res, err := cube.Execute(context.Background(), Query{Measures: []string{"orders"}}.Slice("Store", "Region", "atlantis"))
	if err != nil {
		t.Fatal(err)
	}
	if cell, ok := res.Cell(0, 0); ok && cell[0] != 0 {
		t.Errorf("unknown member matched %v facts", cell[0])
	}
}
