package workload

import (
	"context"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

func TestHealthcareCSVDeterministic(t *testing.T) {
	a := Healthcare{Rows: 100, Seed: 7}.AdmissionsCSV()
	b := Healthcare{Rows: 100, Seed: 7}.AdmissionsCSV()
	if a != b {
		t.Error("generator not deterministic")
	}
	c := Healthcare{Rows: 100, Seed: 8}.AdmissionsCSV()
	if a == c {
		t.Error("seed has no effect")
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 101 {
		t.Errorf("lines = %d", len(lines))
	}
	if lines[0] != "admitted,ward,severity,patients,cost,stay_days" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestHealthcareLoad(t *testing.T) {
	e := storage.MustOpenMemory()
	defer e.Close()
	n, err := Healthcare{Rows: 500}.LoadAdmissions(e, "admissions")
	if err != nil || n != 500 {
		t.Fatalf("load: %v n=%d", err, n)
	}
	db := sql.NewDB(e)
	res, err := db.QueryContext(context.Background(), "SELECT COUNT(DISTINCT ward), COUNT(DISTINCT month) FROM admissions")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) < 5 {
		t.Errorf("wards = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].(int64) < 12 {
		t.Errorf("months = %v", res.Rows[0][1])
	}
}

func TestRetailLoad(t *testing.T) {
	e := storage.MustOpenMemory()
	defer e.Close()
	n, err := Retail{Facts: 2000, Products: 20, Stores: 5}.Load(e, nil)
	if err != nil || n != 2000 {
		t.Fatalf("load: %v n=%d", err, n)
	}
	db := sql.NewDB(e)
	res, err := db.QueryContext(context.Background(), `
		SELECT d.year, SUM(f.amount)
		FROM fact_sales f JOIN dim_date d ON f.date_id = d.id
		GROUP BY d.year ORDER BY d.year`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("years = %v", res.Rows)
	}
	// FK integrity: every fact joins a product.
	res, _ = db.QueryContext(context.Background(), `
		SELECT COUNT(*) FROM fact_sales f
		LEFT JOIN dim_product p ON f.product_id = p.id
		WHERE p.id IS NULL`)
	if res.Rows[0][0] != int64(0) {
		t.Errorf("orphan facts = %v", res.Rows[0][0])
	}
}

func TestRetailLoadWithMapping(t *testing.T) {
	e := storage.MustOpenMemory()
	defer e.Close()
	prefix := func(s string) string { return "tn_" + s }
	if _, err := (Retail{Facts: 100}).Load(e, prefix); err != nil {
		t.Fatal(err)
	}
	if !e.HasTable("tn_fact_sales") || e.HasTable("fact_sales") {
		t.Errorf("tables = %v", e.Tables())
	}
}
