package report

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

func fixture(t *testing.T) *sql.DB {
	t.Helper()
	e := storage.MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	db := sql.NewDB(e)
	for _, q := range []string{
		"CREATE TABLE admissions (ward TEXT, month INT, patients INT, cost FLOAT)",
		`INSERT INTO admissions VALUES
			('cardio', 1, 40, 8000.0), ('cardio', 2, 35, 7200.0),
			('neuro', 1, 22, 9100.0), ('neuro', 2, 28, 9900.0),
			('ortho', 1, 51, 4300.0), ('ortho', 2, 47, 4100.0)`,
	} {
		if _, err := db.QueryContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func dashboardSpec() *Spec {
	return &Spec{
		Name:  "healthcare",
		Title: "Healthcare Dashboard",
		Elements: []Element{
			{Kind: "kpi", Title: "Total Patients", Query: "SELECT SUM(patients) FROM admissions"},
			{Kind: "kpi", Title: "Avg Cost", Query: "SELECT AVG(cost) FROM admissions", Format: "%.1f €"},
			{Kind: "chart", Title: "Patients by Ward", Chart: ChartBar,
				Query: "SELECT ward, SUM(patients) AS patients FROM admissions GROUP BY ward ORDER BY ward",
				Label: "ward"},
			{Kind: "chart", Title: "Cost Trend", Chart: ChartLine,
				Query: "SELECT month, SUM(cost) AS cost FROM admissions GROUP BY month ORDER BY month",
				Label: "month"},
			{Kind: "chart", Title: "Ward Share", Chart: ChartPie,
				Query: "SELECT ward, SUM(patients) AS patients FROM admissions GROUP BY ward ORDER BY ward",
				Label: "ward"},
			{Kind: "table", Title: "Detail",
				Query:   "SELECT ward, month, patients, cost FROM admissions ORDER BY ward, month",
				Columns: []string{"ward", "month", "patients"}, Limit: 4},
			{Kind: "text", Title: "Notes", Text: "Synthetic healthcare data."},
		},
	}
}

func TestValidate(t *testing.T) {
	bad := []*Spec{
		{},
		{Name: "x"},
		{Name: "x", Elements: []Element{{Kind: "bogus"}}},
		{Name: "x", Elements: []Element{{Kind: "table"}}},
		{Name: "x", Elements: []Element{{Kind: "chart", Query: "SELECT 1", Chart: "sunburst"}}},
		{Name: "x", Elements: []Element{{Kind: "text"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := dashboardSpec().Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestRunDashboard(t *testing.T) {
	db := fixture(t)
	out, err := Run(context.Background(), DBQueryer(db), dashboardSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 7 {
		t.Fatalf("items = %d", len(out.Items))
	}
	if out.Items[0].Value != "223" {
		t.Errorf("kpi = %q", out.Items[0].Value)
	}
	if !strings.HasSuffix(out.Items[1].Value, "€") {
		t.Errorf("formatted kpi = %q", out.Items[1].Value)
	}
	bar := out.Items[2].Chart
	if bar == nil || len(bar.Labels) != 3 || bar.Labels[0] != "cardio" {
		t.Fatalf("bar chart = %+v", bar)
	}
	if bar.Series[0].Values[0] != 75 { // cardio: 40+35
		t.Errorf("cardio patients = %v", bar.Series[0].Values[0])
	}
	tbl := out.Items[5].Grid
	if tbl == nil || len(tbl.Columns) != 3 || len(tbl.Rows) != 4 {
		t.Errorf("table = %+v", tbl)
	}
}

func TestRunErrors(t *testing.T) {
	db := fixture(t)
	bad := &Spec{Name: "x", Elements: []Element{{Kind: "table", Query: "SELECT * FROM missing"}}}
	if _, err := Run(context.Background(), DBQueryer(db), bad); err == nil {
		t.Error("query error swallowed")
	}
	bad = &Spec{Name: "x", Elements: []Element{{Kind: "chart", Chart: ChartBar,
		Query: "SELECT ward, ward AS w2 FROM admissions", Label: "ward"}}}
	if _, err := Run(context.Background(), DBQueryer(db), bad); err == nil {
		t.Error("non-numeric series accepted")
	}
	bad = &Spec{Name: "x", Elements: []Element{{Kind: "table",
		Query: "SELECT ward FROM admissions", Columns: []string{"ghost"}}}}
	if _, err := Run(context.Background(), DBQueryer(db), bad); err == nil {
		t.Error("unknown column accepted")
	}
	bad = &Spec{Name: "x", Elements: []Element{{Kind: "kpi", Query: "SELECT patients FROM admissions WHERE 1 = 0"}}}
	if _, err := Run(context.Background(), DBQueryer(db), bad); err == nil {
		t.Error("empty kpi accepted")
	}
}

func TestRenderText(t *testing.T) {
	db := fixture(t)
	out, _ := Run(context.Background(), DBQueryer(db), dashboardSpec())
	var buf bytes.Buffer
	if err := RenderText(&buf, out); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"Healthcare Dashboard", "Total Patients", "223", "cardio", "#", "ward"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q", want)
		}
	}
}

func TestRenderHTML(t *testing.T) {
	db := fixture(t)
	out, _ := Run(context.Background(), DBQueryer(db), dashboardSpec())
	var buf bytes.Buffer
	if err := RenderHTML(&buf, out); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{"<svg", "<table>", "polyline", "<path", "kpi"} {
		if !strings.Contains(html, want) {
			t.Errorf("html output missing %q", want)
		}
	}
	// XSS safety: titles are escaped.
	spec := dashboardSpec()
	spec.Title = `<script>alert(1)</script>`
	out2, _ := Run(context.Background(), DBQueryer(db), spec)
	buf.Reset()
	RenderHTML(&buf, out2)
	if strings.Contains(buf.String(), "<script>alert") {
		t.Error("unescaped title in HTML")
	}
}

func TestRenderCSV(t *testing.T) {
	db := fixture(t)
	out, _ := Run(context.Background(), DBQueryer(db), dashboardSpec())
	var buf bytes.Buffer
	if err := RenderCSV(&buf, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "ward,month,patients" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 5 { // header + 4 limited rows
		t.Errorf("csv lines = %d", len(lines))
	}
}

func TestRenderJSON(t *testing.T) {
	db := fixture(t)
	out, _ := Run(context.Background(), DBQueryer(db), dashboardSpec())
	var buf bytes.Buffer
	if err := RenderJSON(&buf, out); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	if doc["name"] != "healthcare" {
		t.Errorf("json name = %v", doc["name"])
	}
	items := doc["items"].([]any)
	if len(items) != 7 {
		t.Errorf("json items = %d", len(items))
	}
}

func TestStore(t *testing.T) {
	st := NewStore()
	spec := dashboardSpec()
	if err := st.Save("health", spec); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("health", &Spec{Name: "bad"}); err == nil {
		t.Error("invalid spec saved")
	}
	got, ok := st.Get("healthcare")
	if !ok || got.Title != "Healthcare Dashboard" {
		t.Errorf("get = %v %v", got, ok)
	}
	// Re-saving replaces without duplicating the group entry.
	st.Save("health", spec)
	if g := st.Groups(); len(g["health"]) != 1 {
		t.Errorf("groups = %v", g)
	}
	st.Delete("healthcare")
	if _, ok := st.Get("healthcare"); ok {
		t.Error("delete failed")
	}
	if g := st.Groups(); len(g["health"]) != 0 {
		t.Errorf("group entry not removed: %v", g)
	}
}

func TestChartSeriesSelection(t *testing.T) {
	db := fixture(t)
	spec := &Spec{Name: "s", Elements: []Element{{
		Kind: "chart", Chart: ChartBar,
		Query:  "SELECT ward, SUM(patients) AS p, SUM(cost) AS c FROM admissions GROUP BY ward ORDER BY ward",
		Label:  "ward",
		Series: []string{"c"},
	}}}
	out, err := Run(context.Background(), DBQueryer(db), spec)
	if err != nil {
		t.Fatal(err)
	}
	cd := out.Items[0].Chart
	if len(cd.Series) != 1 || cd.Series[0].Name != "c" {
		t.Errorf("series = %+v", cd.Series)
	}
	// Default series: every non-label column.
	spec.Elements[0].Series = nil
	out, _ = Run(context.Background(), DBQueryer(db), spec)
	if len(out.Items[0].Chart.Series) != 2 {
		t.Errorf("default series = %+v", out.Items[0].Chart.Series)
	}
}
