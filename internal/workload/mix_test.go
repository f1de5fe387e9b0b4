package workload

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

// runMix loads the full workload mix (healthcare + retail star) with the
// given seeds into a fresh engine and returns canonical aggregate
// results over both — the fingerprint benchmarks and experiments rely on
// when comparing runs.
func runMix(t *testing.T, hSeed, rSeed int64) []string {
	t.Helper()
	e := storage.MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	if _, err := (Healthcare{Rows: 300, Seed: hSeed}).LoadAdmissions(e, "admissions"); err != nil {
		t.Fatal(err)
	}
	if _, err := (Retail{Facts: 1000, Products: 10, Stores: 4, Seed: rSeed}).Load(e, nil); err != nil {
		t.Fatal(err)
	}
	db := sql.NewDB(e)
	var out []string
	for _, q := range []string{
		"SELECT ward, SUM(patients), SUM(cost) FROM admissions GROUP BY ward ORDER BY ward",
		"SELECT month, COUNT(*) FROM admissions GROUP BY month ORDER BY month",
		`SELECT d.year, COUNT(*), SUM(f.amount)
		 FROM fact_sales f JOIN dim_date d ON f.date_id = d.id
		 GROUP BY d.year ORDER BY d.year`,
		`SELECT p.category, SUM(f.qty)
		 FROM fact_sales f JOIN dim_product p ON f.product_id = p.id
		 GROUP BY p.category ORDER BY p.category`,
	} {
		res, err := db.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("mix query %q: %v", q, err)
		}
		out = append(out, fmt.Sprint(res.Rows))
	}
	return out
}

// TestWorkloadMixDeterministic pins the property every benchmark and
// experiment depends on: the same seeds produce byte-identical data —
// across engines, across runs — and different seeds actually change it.
func TestWorkloadMixDeterministic(t *testing.T) {
	a := runMix(t, 7, 11)
	b := runMix(t, 7, 11)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seeds diverge:\n%v\nvs\n%v", a, b)
	}
	c := runMix(t, 8, 12)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produce identical data; seeding is dead")
	}
}

// TestRetailCSVDeterministic mirrors the healthcare generator check for
// the retail star: two loads with one seed must write identical fact
// rows (checked via an order-insensitive aggregate fingerprint).
func TestRetailFactFingerprintDeterministic(t *testing.T) {
	fingerprint := func(seed int64) string {
		e := storage.MustOpenMemory()
		defer e.Close()
		if _, err := (Retail{Facts: 500, Seed: seed}).Load(e, nil); err != nil {
			t.Fatal(err)
		}
		res, err := sql.NewDB(e).QueryContext(context.Background(),
			"SELECT COUNT(*), SUM(amount), SUM(qty), MIN(amount), MAX(amount) FROM fact_sales")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	if a, b := fingerprint(3), fingerprint(3); a != b {
		t.Errorf("retail fingerprint diverges: %s vs %s", a, b)
	}
	if a, c := fingerprint(3), fingerprint(4); a == c {
		t.Error("retail seed has no effect")
	}
}
