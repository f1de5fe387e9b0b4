// Package bench implements the figure-by-figure experiment harness of
// DESIGN.md §3. The ODBIS paper reports no quantitative results, so each
// experiment regenerates the *claim* attached to a figure or section —
// who wins, by roughly what factor — on this implementation. Tables print
// in the format recorded in EXPERIMENTS.md; `go test -bench` exposes the
// same bodies as testing.B benchmarks.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/odbis/odbis/internal/olap"
	"github.com/odbis/odbis/internal/report"
	"github.com/odbis/odbis/internal/security"
	"github.com/odbis/odbis/internal/server"
	"github.com/odbis/odbis/internal/services"
	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/tenant"
	"github.com/odbis/odbis/internal/workload"
)

// Table is one experiment's result grid.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	// Claim states what the paper implies and what the shape should show.
	Claim string
}

// String renders the table with fixed-width columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	}
	all := append([][]string{t.Headers}, t.Rows...)
	widths := make([]int, len(t.Headers))
	for _, row := range all {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for r, row := range all {
		for i, cell := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], cell)
		}
		sb.WriteString("\n")
		if r == 0 {
			for _, w := range widths {
				sb.WriteString(strings.Repeat("-", w) + "  ")
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
func opsPerSec(n int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", float64(n)/d.Seconds())
}

// newPlatform boots an in-memory service platform with an admin.
func newPlatform() (*services.Platform, *services.Session, error) {
	e := storage.MustOpenMemory()
	reg, err := tenant.NewRegistry(e)
	if err != nil {
		return nil, nil, err
	}
	sec, err := security.NewManager(e, security.Options{HashIterations: 16, TokenSecret: []byte("bench")})
	if err != nil {
		return nil, nil, err
	}
	p := services.NewPlatform(reg, sec)
	if err := p.Bootstrap("admin", "admin"); err != nil {
		return nil, nil, err
	}
	admin, _, err := p.Login("admin", "admin")
	if err != nil {
		return nil, nil, err
	}
	return p, admin, nil
}

// provisionTenant creates a tenant + designer and returns the session.
func provisionTenant(p *services.Platform, admin *services.Session, id string) (*services.Session, error) {
	if _, err := admin.CreateTenant(context.Background(), id, id, "enterprise"); err != nil {
		return nil, err
	}
	user := "u-" + id
	if err := admin.CreateUser(context.Background(), security.UserSpec{
		Username: user, Password: "pw", Tenant: id,
		Roles: []string{services.RoleDesigner},
	}); err != nil {
		return nil, err
	}
	sess, _, err := p.Login(user, "pw")
	return sess, err
}

// E1EndToEnd exercises Fig. 1: every architectural layer per request.
// N tenants each issue dashboard requests over HTTP; throughput should
// stay roughly flat as tenants multiply on the shared platform.
func E1EndToEnd(quick bool) (*Table, error) {
	tenantCounts := []int{1, 4, 16}
	reqPerTenant := 30
	rows := 400
	if quick {
		tenantCounts = []int{1, 4}
		reqPerTenant = 10
		rows = 100
	}
	t := &Table{
		ID:      "E1 (Fig. 1)",
		Title:   "five-layer SaaS architecture, end-to-end HTTP dashboard requests",
		Headers: []string{"tenants", "requests", "total_ms", "req_per_sec", "ms_per_req"},
		Claim:   "one shared platform serves many tenants; per-request latency stays bounded as tenants grow",
	}
	for _, n := range tenantCounts {
		p, admin, err := newPlatform()
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(server.New(p))
		var tokens []string
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("t%02d", i)
			sess, err := provisionTenant(p, admin, id)
			if err != nil {
				ts.Close()
				return nil, err
			}
			if _, err := (workload.Healthcare{Rows: rows, Seed: int64(i + 1)}).LoadAdmissions(
				p.Registry.Engine(), sess.Catalog.Physical("admissions")); err != nil {
				ts.Close()
				return nil, err
			}
			if err := sess.SaveReport(context.Background(), "ops", dashboardSpec()); err != nil {
				ts.Close()
				return nil, err
			}
			_, token, err := p.Login("u-"+id, "pw")
			if err != nil {
				ts.Close()
				return nil, err
			}
			tokens = append(tokens, token)
		}
		total := n * reqPerTenant
		start := time.Now()
		for r := 0; r < reqPerTenant; r++ {
			for _, token := range tokens {
				req, _ := http.NewRequest("GET", ts.URL+"/api/reports/bench-dash?format=json", nil)
				req.Header.Set("Authorization", "Bearer "+token)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					ts.Close()
					return nil, err
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					ts.Close()
					return nil, fmt.Errorf("E1: HTTP %d", resp.StatusCode)
				}
				// Drain so connections are reused.
				var sink bytes.Buffer
				sink.ReadFrom(resp.Body)
				resp.Body.Close()
			}
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(total), ms(elapsed),
			opsPerSec(total, elapsed),
			fmt.Sprintf("%.2f", float64(elapsed.Microseconds())/1000/float64(total)),
		})
		ts.Close()
	}
	return t, nil
}

func dashboardSpec() *report.Spec {
	return &report.Spec{
		Name:  "bench-dash",
		Title: "Bench Dashboard",
		Elements: []report.Element{
			{Kind: "kpi", Title: "Patients", Query: "SELECT SUM(patients) FROM admissions"},
			{Kind: "chart", Title: "By Ward", Chart: report.ChartBar,
				Query: "SELECT ward, SUM(cost) AS cost FROM admissions GROUP BY ward ORDER BY ward",
				Label: "ward"},
			{Kind: "table", Title: "Detail",
				Query: "SELECT ward, severity, patients, cost FROM admissions ORDER BY cost DESC",
				Limit: 10},
		},
	}
}

// E2MultiTenant exercises §2's economies-of-scale claim ("one database is
// used to store all customers' data, so this makes the overall system
// scalable at a far lower cost"): one shared durable store with tenant
// catalogs vs a durable engine per customer, at a fixed total data
// volume. The shared mode amortizes the per-instance infrastructure:
// provisioning, checkpointing, data files.
func E2MultiTenant(quick bool) (*Table, error) {
	totalRows := 40000
	tenantCounts := []int{1, 4, 16, 32}
	if quick {
		totalRows = 8000
		tenantCounts = []int{1, 4, 8}
	}
	base, err := os.MkdirTemp("", "odbis-e2")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	t := &Table{
		ID:      "E2 (§2)",
		Title:   "multi-tenancy: shared durable store vs engine-per-tenant at fixed total volume",
		Headers: []string{"tenants", "mode", "load_ms", "query_ms", "checkpoint_ms", "files", "disk_kb"},
		Claim:   "the shared store amortizes per-instance infrastructure: one checkpoint, one file set, flat ops cost as tenants grow",
	}
	for _, n := range tenantCounts {
		perTenant := totalRows / n

		// Shared mode: one durable engine, tenant catalogs.
		sharedDir := filepath.Join(base, fmt.Sprintf("shared-%d", n))
		e, err := storage.Open(storage.Options{Dir: sharedDir, Sync: storage.SyncNone})
		if err != nil {
			return nil, err
		}
		reg, err := tenant.NewRegistry(e)
		if err != nil {
			return nil, err
		}
		var catalogs []*tenant.Catalog
		loadStart := time.Now()
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("t%02d", i)
			if _, err := reg.Create(id, id, "enterprise"); err != nil {
				return nil, err
			}
			cat, err := reg.Catalog(id)
			if err != nil {
				return nil, err
			}
			if _, err := (workload.Retail{Facts: perTenant, Seed: int64(i + 1)}).Load(e, cat.Physical); err != nil {
				return nil, err
			}
			catalogs = append(catalogs, cat)
		}
		loadShared := time.Since(loadStart)
		qStart := time.Now()
		for _, cat := range catalogs {
			if _, err := cat.Query(context.Background(), "SELECT COUNT(*), SUM(amount) FROM fact_sales"); err != nil {
				return nil, err
			}
		}
		queryShared := time.Since(qStart)
		ckStart := time.Now()
		if err := e.Checkpoint(); err != nil {
			return nil, err
		}
		ckShared := time.Since(ckStart)
		files, disk := dirUsage(sharedDir)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), "shared", ms(loadShared), ms(queryShared), ms(ckShared),
			fmt.Sprint(files), fmt.Sprintf("%.0f", disk/1024),
		})
		e.Close()

		// Isolated mode: one durable engine per tenant.
		isoDir := filepath.Join(base, fmt.Sprintf("iso-%d", n))
		var engines []*storage.Engine
		loadStart = time.Now()
		for i := 0; i < n; i++ {
			ei, err := storage.Open(storage.Options{
				Dir:  filepath.Join(isoDir, fmt.Sprintf("t%02d", i)),
				Sync: storage.SyncNone,
			})
			if err != nil {
				return nil, err
			}
			if _, err := (workload.Retail{Facts: perTenant, Seed: int64(i + 1)}).Load(ei, nil); err != nil {
				return nil, err
			}
			engines = append(engines, ei)
		}
		loadIso := time.Since(loadStart)
		qStart = time.Now()
		for _, ei := range engines {
			db := sql.NewDB(ei)
			if _, err := db.QueryContext(context.Background(), "SELECT COUNT(*), SUM(amount) FROM fact_sales"); err != nil {
				return nil, err
			}
		}
		queryIso := time.Since(qStart)
		ckStart = time.Now()
		for _, ei := range engines {
			if err := ei.Checkpoint(); err != nil {
				return nil, err
			}
		}
		ckIso := time.Since(ckStart)
		files, disk = dirUsage(isoDir)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), "isolated", ms(loadIso), ms(queryIso), ms(ckIso),
			fmt.Sprint(files), fmt.Sprintf("%.0f", disk/1024),
		})
		for _, ei := range engines {
			ei.Close()
		}
	}
	return t, nil
}

// dirUsage counts files and bytes under dir.
func dirUsage(dir string) (files int, bytes float64) {
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		files++
		if info, err := d.Info(); err == nil {
			bytes += float64(info.Size())
		}
		return nil
	})
	return files, bytes
}

// E5Layers exercises Fig. 4: the same aggregation issued at each layer
// boundary of the stack, isolating the per-layer overhead.
func E5Layers(quick bool) (*Table, error) {
	iters := 200
	facts := 5000
	if quick {
		iters = 50
		facts = 1000
	}
	p, admin, err := newPlatform()
	if err != nil {
		return nil, err
	}
	sess, err := provisionTenant(p, admin, "layer")
	if err != nil {
		return nil, err
	}
	e := p.Registry.Engine()
	if _, err := (workload.Retail{Facts: facts}).Load(e, sess.Catalog.Physical); err != nil {
		return nil, err
	}
	factTable := sess.Catalog.Physical("fact_sales")
	schema, err := e.Schema(factTable)
	if err != nil {
		return nil, err
	}
	amountPos, _ := schema.ColumnIndex("amount")
	db := sql.NewDB(e)
	query := "SELECT SUM(amount) FROM fact_sales"
	physical := strings.Replace(query, "fact_sales", factTable, 1)

	ts := httptest.NewServer(server.New(p))
	defer ts.Close()
	_, token, err := p.Login("u-layer", "pw")
	if err != nil {
		return nil, err
	}
	body, _ := json.Marshal(map[string]any{"sql": query})

	layers := []struct {
		name string
		fn   func() error
	}{
		{"storage (scan)", func() error {
			return e.View(func(tx *storage.Tx) error {
				sum := 0.0
				return tx.Scan(factTable, func(_ storage.RID, row storage.Row) bool {
					if f, ok := row[amountPos].(float64); ok {
						sum += f
					}
					return true
				})
			})
		}},
		{"sql (engine)", func() error {
			_, err := db.QueryContext(context.Background(), physical)
			return err
		}},
		{"tenant (catalog)", func() error {
			_, err := sess.Catalog.Query(context.Background(), query)
			return err
		}},
		{"service (session)", func() error {
			_, err := sess.Query(context.Background(), query)
			return err
		}},
		{"http (rest)", func() error {
			req, _ := http.NewRequest("POST", ts.URL+"/api/query", bytes.NewReader(body))
			req.Header.Set("Authorization", "Bearer "+token)
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			var sink bytes.Buffer
			sink.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("HTTP %d", resp.StatusCode)
			}
			return nil
		}},
	}

	t := &Table{
		ID:      "E5 (Fig. 4)",
		Title:   "per-layer overhead: the same SUM query issued at each layer boundary",
		Headers: []string{"layer", "iters", "total_ms", "us_per_op", "x_vs_storage"},
		Claim:   "each architectural layer adds bounded overhead; HTTP dominates, storage is the floor",
	}
	var base float64
	for _, layer := range layers {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := layer.fn(); err != nil {
				return nil, fmt.Errorf("E5 %s: %w", layer.name, err)
			}
		}
		elapsed := time.Since(start)
		perOp := float64(elapsed.Microseconds()) / float64(iters)
		if base == 0 {
			base = perOp
		}
		t.Rows = append(t.Rows, []string{
			layer.name, fmt.Sprint(iters), ms(elapsed),
			fmt.Sprintf("%.0f", perOp),
			fmt.Sprintf("%.2f", perOp/base),
		})
	}
	return t, nil
}

// E7Dashboard exercises Fig. 6: dashboard build latency vs widget count
// over the healthcare dataset.
func E7Dashboard(quick bool) (*Table, error) {
	rows := 50000
	iters := 5
	if quick {
		rows = 5000
		iters = 2
	}
	e := storage.MustOpenMemory()
	defer e.Close()
	if _, err := (workload.Healthcare{Rows: rows}).LoadAdmissions(e, "admissions"); err != nil {
		return nil, err
	}
	db := sql.NewDB(e)
	widgets := []report.Element{
		{Kind: "kpi", Title: "Patients", Query: "SELECT SUM(patients) FROM admissions"},
		{Kind: "chart", Title: "By Ward", Chart: report.ChartBar,
			Query: "SELECT ward, SUM(patients) AS p FROM admissions GROUP BY ward ORDER BY ward", Label: "ward"},
		{Kind: "chart", Title: "Trend", Chart: report.ChartLine,
			Query: "SELECT month, SUM(cost) AS c FROM admissions GROUP BY month ORDER BY month", Label: "month"},
		{Kind: "chart", Title: "Severity", Chart: report.ChartPie,
			Query: "SELECT severity, COUNT(*) AS n FROM admissions GROUP BY severity", Label: "severity"},
		{Kind: "table", Title: "Detail",
			Query: "SELECT ward, severity, patients, cost FROM admissions ORDER BY cost DESC", Limit: 20},
		{Kind: "kpi", Title: "Avg Stay", Query: "SELECT AVG(stay_days) FROM admissions"},
		{Kind: "chart", Title: "Stay by Severity", Chart: report.ChartBar,
			Query: "SELECT severity, AVG(stay_days) AS d FROM admissions GROUP BY severity", Label: "severity"},
		{Kind: "table", Title: "Months",
			Query: "SELECT month, COUNT(*) AS n FROM admissions GROUP BY month ORDER BY month"},
	}
	t := &Table{
		ID:      "E7 (Fig. 6)",
		Title:   fmt.Sprintf("ad-hoc healthcare dashboard build over %d admissions", rows),
		Headers: []string{"widgets", "build_ms", "html_kb"},
		Claim:   "dashboard latency grows roughly linearly with widget count (one query per widget)",
	}
	for _, n := range []int{1, 2, 4, 8} {
		spec := &report.Spec{Name: "d", Title: "D", Elements: widgets[:n]}
		var htmlLen int
		start := time.Now()
		for i := 0; i < iters; i++ {
			out, err := report.Run(context.Background(), report.DBQueryer(db), spec)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := report.RenderHTML(&buf, out); err != nil {
				return nil, err
			}
			htmlLen = buf.Len()
		}
		elapsed := time.Since(start) / time.Duration(iters)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(elapsed), fmt.Sprintf("%.1f", float64(htmlLen)/1024),
		})
	}
	return t, nil
}

// E9OLAP exercises §3.1's Analysis Service: cube build and navigation
// latencies.
func E9OLAP(quick bool) (*Table, error) {
	facts := 100000
	iters := 20
	if quick {
		facts = 10000
		iters = 5
	}
	e := storage.MustOpenMemory()
	defer e.Close()
	if _, err := (workload.Retail{Facts: facts, Products: 100, Stores: 20}).Load(e, nil); err != nil {
		return nil, err
	}
	spec := retailCubeSpec()
	buildStart := time.Now()
	cube, err := olap.Build(context.Background(), e, spec)
	if err != nil {
		return nil, err
	}
	buildDur := time.Since(buildStart)

	t := &Table{
		ID:      "E9 (§3.1 AS)",
		Title:   fmt.Sprintf("OLAP cube build + navigation over %d facts", facts),
		Headers: []string{"operation", "iters", "avg_ms"},
		Claim:   "cube navigation (slice/dice/drill) is interactive (ms-scale) once the cube is built",
	}
	t.Rows = append(t.Rows, []string{"build", "1", ms(buildDur)})

	ops := []struct {
		name string
		q    olap.Query
	}{
		{"total", olap.Query{Measures: []string{"amount"}}},
		{"group by region", olap.Query{
			Rows: []olap.LevelRef{{Dimension: "Store", Level: "Region"}}, Measures: []string{"amount"}}},
		{"drill region×category", olap.Query{
			Rows: []olap.LevelRef{
				{Dimension: "Store", Level: "Region"},
				{Dimension: "Product", Level: "Category"},
			}, Measures: []string{"amount"}}},
		{"slice year=2026", olap.Query{
			Rows:     []olap.LevelRef{{Dimension: "Store", Level: "Region"}},
			Measures: []string{"amount"},
		}.Slice("Date", "Year", 2026)},
		{"pivot quarter×region", olap.Query{
			Rows:     []olap.LevelRef{{Dimension: "Date", Level: "Quarter"}},
			Cols:     []olap.LevelRef{{Dimension: "Store", Level: "Region"}},
			Measures: []string{"qty"}}},
	}
	for _, op := range ops {
		cube.SetCache(0) // measure raw aggregation
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := cube.Execute(context.Background(), op.q); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start) / time.Duration(iters)
		t.Rows = append(t.Rows, []string{op.name, fmt.Sprint(iters), ms(elapsed)})
	}
	return t, nil
}

func retailCubeSpec() olap.CubeSpec {
	return olap.CubeSpec{
		Name:      "Sales",
		FactTable: "fact_sales",
		Measures: []olap.MeasureSpec{
			{Name: "amount", Column: "amount", Agg: olap.AggSum},
			{Name: "qty", Column: "qty", Agg: olap.AggSum},
		},
		Dimensions: []olap.DimensionSpec{
			{Name: "Date", Table: "dim_date", Key: "id", FactFK: "date_id",
				Levels: []olap.LevelSpec{
					{Name: "Year", Column: "year"}, {Name: "Quarter", Column: "quarter"}, {Name: "Month", Column: "month"},
				}},
			{Name: "Product", Table: "dim_product", Key: "id", FactFK: "product_id",
				Levels: []olap.LevelSpec{{Name: "Category", Column: "category"}, {Name: "SKU", Column: "sku"}}},
			{Name: "Store", Table: "dim_store", Key: "id", FactFK: "store_id",
				Levels: []olap.LevelSpec{{Name: "Region", Column: "region"}, {Name: "City", Column: "city"}}},
		},
	}
}
