package mddws

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/etl"
	"github.com/odbis/odbis/internal/metamodel"
	"github.com/odbis/odbis/internal/metamodel/cwm"
	"github.com/odbis/odbis/internal/olap"
	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

func salesCIM(t testing.TB) *metamodel.Model {
	t.Helper()
	m, err := cwm.StarSpec{
		Name: "Retail",
		Dimensions: []cwm.DimensionSpec{
			{Name: "Date", Temporal: true, Levels: []cwm.LevelSpec{
				{Name: "Year"}, {Name: "Month"},
			}},
			{Name: "Product", Levels: []cwm.LevelSpec{
				{Name: "Category"},
				{Name: "SKU", Attributes: []cwm.AttributeSpec{{Name: "unit price", Datatype: "number"}}},
			}},
		},
		Facts: []cwm.FactSpec{
			{
				Name: "Sales",
				Measures: []cwm.MeasureSpec{
					{Name: "amount", Aggregation: "sum"},
					{Name: "orders", Aggregation: "count"},
				},
				Dimensions: []string{"Date", "Product"},
			},
		},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnakeName(t *testing.T) {
	cases := map[string]string{
		"Ward Type":  "ward_type",
		"SKU":        "sku",
		"unit price": "unit_price",
		"A--B":       "a_b",
		"Sales":      "sales",
	}
	for in, want := range cases {
		if got := SnakeName(in); got != want {
			t.Errorf("SnakeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCIMToPIM(t *testing.T) {
	pim, trace, err := CIMToPIM().Run(salesCIM(t))
	if err != nil {
		t.Fatal(err)
	}
	cube, ok := pim.FindByName("Cube", "Sales")
	if !ok {
		t.Fatal("cube missing")
	}
	if cube.Str("factTable") != "fact_sales" {
		t.Errorf("factTable = %q", cube.Str("factTable"))
	}
	if len(cube.Refs("measures")) != 2 || len(cube.Refs("dimensionAssociations")) != 2 {
		t.Errorf("cube shape: %d measures, %d assocs",
			len(cube.Refs("measures")), len(cube.Refs("dimensionAssociations")))
	}
	date, ok := pim.FindByName("Dimension", "Date")
	if !ok || date.Str("table") != "dim_date" || !date.Bool("temporal") {
		t.Errorf("date dimension = %+v", date)
	}
	// The attribute with a datatype survives into the PIM.
	product, _ := pim.FindByName("Dimension", "Product")
	var la *metamodel.Element
	for _, h := range product.Refs("hierarchies") {
		for _, l := range h.Refs("levels") {
			for _, a := range l.Refs("attributes") {
				la = a
			}
		}
	}
	if la == nil || la.Str("datatype") != "number" || la.Str("column") != "unit_price" {
		t.Errorf("level attribute = %+v", la)
	}
	// The schema element aggregates everything.
	schema, ok := pim.FindByName("Schema", "Retail")
	if !ok || len(schema.Refs("cubes")) != 1 || len(schema.Refs("dimensions")) != 2 {
		t.Error("schema aggregation wrong")
	}
	if len(trace.Links) == 0 {
		t.Error("empty trace")
	}
}

func TestPIMToPSM(t *testing.T) {
	pim, _, err := CIMToPIM().Run(salesCIM(t))
	if err != nil {
		t.Fatal(err)
	}
	psm, _, err := PIMToPSM().Run(pim)
	if err != nil {
		t.Fatal(err)
	}
	fact, ok := psm.FindByName("Table", "fact_sales")
	if !ok || fact.Str("role") != "fact" {
		t.Fatal("fact table missing")
	}
	var colNames []string
	for _, c := range fact.Refs("columns") {
		colNames = append(colNames, c.Name())
	}
	joined := strings.Join(colNames, ",")
	for _, want := range []string{"date_id", "product_id", "amount", "orders"} {
		if !strings.Contains(joined, want) {
			t.Errorf("fact columns %v missing %s", colNames, want)
		}
	}
	dim, ok := psm.FindByName("Table", "dim_product")
	if !ok || dim.Str("role") != "dimension" {
		t.Fatal("dim table missing")
	}
	if dim.Ref("primaryKey") == nil {
		t.Error("dimension pk missing")
	}
	// Typed attribute column.
	var priceType string
	for _, c := range dim.Refs("columns") {
		if c.Name() == "unit_price" {
			priceType = c.Str("type")
		}
	}
	if priceType != "FLOAT" {
		t.Errorf("unit_price type = %q", priceType)
	}
	// FKs bind fact to dimensions.
	fks := psm.ElementsOf("ForeignKey")
	if len(fks) != 2 {
		t.Errorf("foreign keys = %d", len(fks))
	}
}

func TestGeneratedDDLDeploys(t *testing.T) {
	result, err := BuildFromConceptual(salesCIM(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Artifacts.DDL) != 3 { // 2 dims + 1 fact
		t.Fatalf("ddl = %v", result.Artifacts.DDL)
	}
	// Dimensions come first.
	if !strings.Contains(result.Artifacts.DDL[0], "dim_") {
		t.Errorf("first ddl = %s", result.Artifacts.DDL[0])
	}
	// The DDL parses and executes against the real engine.
	e := storage.MustOpenMemory()
	defer e.Close()
	db := sql.NewDB(e)
	for _, ddl := range result.Artifacts.DDL {
		if _, err := db.QueryContext(context.Background(), ddl); err != nil {
			t.Fatalf("generated DDL rejected: %v\n%s", err, ddl)
		}
	}
	for _, tbl := range []string{"dim_date", "dim_product", "fact_sales"} {
		if !e.HasTable(tbl) {
			t.Errorf("table %s not created", tbl)
		}
	}
}

func TestGeneratedCubeSpecWorksEndToEnd(t *testing.T) {
	result, err := BuildFromConceptual(salesCIM(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Artifacts.Cubes) != 1 {
		t.Fatalf("cubes = %d", len(result.Artifacts.Cubes))
	}
	spec := result.Artifacts.Cubes[0]
	if spec.FactTable != "fact_sales" || len(spec.Dimensions) != 2 {
		t.Errorf("spec = %+v", spec)
	}
	// Deploy the schema, load a little data, build the cube, query it.
	e := storage.MustOpenMemory()
	defer e.Close()
	db := sql.NewDB(e)
	for _, ddl := range result.Artifacts.DDL {
		if _, err := db.QueryContext(context.Background(), ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"INSERT INTO dim_date VALUES (1, '2026', 'Jan')",
		"INSERT INTO dim_product VALUES (1, 'toys', 'kite', 1.5)",
		"INSERT INTO fact_sales (date_id, product_id, amount, orders) VALUES (1, 1, 10.5, 1), (1, 1, 4.5, 1)",
	} {
		if _, err := db.QueryContext(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	cube, err := olap.Build(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.Execute(context.Background(), olap.Query{
		Rows:     []olap.LevelRef{{Dimension: "Product", Level: "Category"}},
		Measures: []string{"amount"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := res.Cell(0, 0)
	if !ok || cell[0] != 15 {
		t.Errorf("cube total = %v ok=%v", cell, ok)
	}
}

func TestGeneratedLoadPlans(t *testing.T) {
	result, err := BuildFromConceptual(salesCIM(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Artifacts.LoadPlans) != 1 {
		t.Fatalf("plans = %+v", result.Artifacts.LoadPlans)
	}
	plan := result.Artifacts.LoadPlans[0]
	if plan.Activity != "load_fact_sales" || plan.FactTable != "fact_sales" {
		t.Errorf("plan = %+v", plan)
	}
	// extract → 2 lookups → load.
	if len(plan.Steps) != 4 || !strings.HasPrefix(plan.Steps[0], "extract") || !strings.HasPrefix(plan.Steps[3], "load") {
		t.Errorf("steps = %v", plan.Steps)
	}
	if plan.StagingLocation == "" {
		t.Error("no staging location")
	}
}

func TestBuildLoadJobRuns(t *testing.T) {
	result, err := BuildFromConceptual(salesCIM(t))
	if err != nil {
		t.Fatal(err)
	}
	e := storage.MustOpenMemory()
	defer e.Close()
	db := sql.NewDB(e)
	for _, ddl := range result.Artifacts.DDL {
		db.QueryContext(context.Background(), ddl)
	}
	for _, q := range []string{
		"INSERT INTO dim_date VALUES (1, '2026', 'Jan')",
		"INSERT INTO dim_product VALUES (7, 'toys', 'kite', 1.5)",
	} {
		if _, err := db.QueryContext(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	staging := &etl.SliceSource{Records: []etl.Record{
		{"date_key": "2026-Jan", "sku": "kite", "amount": 10.5, "orders": int64(1), "date_id": int64(1)},
	}}
	job, err := BuildLoadJob(LoadJobConfig{
		Plan:   result.Artifacts.LoadPlans[0],
		Source: staging,
		Engine: e,
		Lookups: map[string]etl.Lookup{
			"lookup_product": {
				On:   "sku",
				From: &etl.TableSource{Engine: e, Table: "dim_product"},
				Key:  "sku",
				Take: []string{"id AS product_id"},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	report := job.Run(context.Background())
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	res, _ := db.QueryContext(context.Background(), "SELECT product_id, amount FROM fact_sales")
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(7) || res.Rows[0][1] != 10.5 {
		t.Errorf("loaded fact = %v", res.Rows)
	}
}

func TestProjectLifecycle(t *testing.T) {
	e := storage.MustOpenMemory()
	defer e.Close()
	svc, err := NewService(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateProject("", "t"); err == nil {
		t.Error("unnamed project accepted")
	}
	p, err := svc.CreateProject("retail-dw", "acme")
	if err != nil {
		t.Fatal(err)
	}
	if p.Phase != "inception" {
		t.Errorf("phase = %s", p.Phase)
	}
	if _, err := svc.CreateProject("retail-dw", "acme"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate project: %v", err)
	}
	if _, err := svc.Build("retail-dw"); !errors.Is(err, ErrNoModel) {
		t.Errorf("build without model: %v", err)
	}
	if err := svc.SaveConceptualModel("retail-dw", salesCIM(t)); err != nil {
		t.Fatal(err)
	}
	p, _ = svc.Project("retail-dw")
	if p.Phase != "elaboration" {
		t.Errorf("phase after model = %s", p.Phase)
	}
	// Model round-trips through persistence.
	cim, err := svc.ConceptualModel("retail-dw")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cim.FindByName("FactConcept", "Sales"); !ok {
		t.Error("model lost in persistence")
	}
	run, err := svc.StartProcess("retail-dw")
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Components) != 1 || run.Components[0] != "Sales" {
		t.Errorf("components = %v", run.Components)
	}
	result, err := svc.Build("retail-dw")
	if err != nil {
		t.Fatal(err)
	}
	if !run.Done() {
		t.Error("process not driven to completion by Build")
	}
	p, _ = svc.Project("retail-dw")
	if p.Phase != "construction" {
		t.Errorf("phase after build = %s", p.Phase)
	}
	// Deploy into the same engine.
	db := sql.NewDB(e)
	n, err := svc.Deploy(context.Background(), "retail-dw", result, dbDeployer{db})
	if err != nil || n != 3 {
		t.Fatalf("deploy: %v n=%d", err, n)
	}
	p, _ = svc.Project("retail-dw")
	if p.Phase != "transition" {
		t.Errorf("phase after deploy = %s", p.Phase)
	}
	// Listing and deletion.
	names, _ := svc.Projects("acme")
	if len(names) != 1 {
		t.Errorf("projects = %v", names)
	}
	if err := svc.DeleteProject("retail-dw"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteProject("retail-dw"); !errors.Is(err, ErrNoProject) {
		t.Errorf("double delete: %v", err)
	}
}

// dbDeployer adapts sql.DB to the Deployer interface.
type dbDeployer struct{ db *sql.DB }

func (d dbDeployer) Exec(ctx context.Context, q string, args ...storage.Value) (int, error) {
	res, err := d.db.QueryContext(ctx, q, args...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

func TestChainLineage(t *testing.T) {
	cim := salesCIM(t)
	chain := DesignChain()
	res, err := chain.Run(cim)
	if err != nil {
		t.Fatal(err)
	}
	fact, ok := res.Final().FindByName("Table", "fact_sales")
	if !ok {
		t.Fatal("fact table missing from PSM")
	}
	lineage := res.Lineage(fact)
	// fact_sales ← Cube Sales ← FactConcept Sales.
	if len(lineage) != 3 {
		t.Errorf("lineage = %v", lineage)
	}
	src, _ := cim.FindByName("FactConcept", "Sales")
	if lineage[0] != src.ID() {
		t.Errorf("lineage root = %s, want %s", lineage[0], src.ID())
	}
}

func TestProcessRunLookupAndRestartSemantics(t *testing.T) {
	e := storage.MustOpenMemory()
	defer e.Close()
	svc, err := NewService(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.ProcessRun("nope"); ok {
		t.Error("run found for missing project")
	}
	svc.CreateProject("p", "t")
	svc.SaveConceptualModel("p", salesCIM(t))
	run1, err := svc.StartProcess("p")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := svc.ProcessRun("p")
	if !ok || got != run1 {
		t.Error("ProcessRun did not return the started run")
	}
	// Restarting replaces the in-flight run.
	run2, err := svc.StartProcess("p")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := svc.ProcessRun("p"); got != run2 {
		t.Error("restart did not replace the run")
	}
	// Starting without a model fails.
	svc.CreateProject("empty", "t")
	if _, err := svc.StartProcess("empty"); err == nil {
		t.Error("process without model accepted")
	}
}

func TestAttrColumnTypes(t *testing.T) {
	// All four conceptual datatypes must surface as typed PSM columns.
	spec := cwm.StarSpec{
		Name: "Typed",
		Dimensions: []cwm.DimensionSpec{{
			Name: "D",
			Levels: []cwm.LevelSpec{{
				Name: "L",
				Attributes: []cwm.AttributeSpec{
					{Name: "a_text", Datatype: "text"},
					{Name: "a_num", Datatype: "number"},
					{Name: "a_date", Datatype: "date"},
					{Name: "a_flag", Datatype: "flag"},
				},
			}},
		}},
		Facts: []cwm.FactSpec{{
			Name:       "F",
			Measures:   []cwm.MeasureSpec{{Name: "m"}},
			Dimensions: []string{"D"},
		}},
	}
	cim, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	result, err := BuildFromConceptual(cim)
	if err != nil {
		t.Fatal(err)
	}
	dim, ok := result.PSM.FindByName("Table", "dim_d")
	if !ok {
		t.Fatal("dim table missing")
	}
	want := map[string]string{
		"a_text": "TEXT", "a_num": "FLOAT", "a_date": "TIMESTAMP", "a_flag": "BOOL",
	}
	for _, c := range dim.Refs("columns") {
		if w, tracked := want[c.Name()]; tracked {
			if c.Str("type") != w {
				t.Errorf("%s type = %s, want %s", c.Name(), c.Str("type"), w)
			}
			delete(want, c.Name())
		}
	}
	if len(want) != 0 {
		t.Errorf("columns missing: %v", want)
	}
	// The typed DDL deploys.
	e2 := storage.MustOpenMemory()
	defer e2.Close()
	db2 := sql.NewDB(e2)
	for _, ddl := range result.Artifacts.DDL {
		if _, err := db2.QueryContext(context.Background(), ddl); err != nil {
			t.Fatalf("typed ddl: %v\n%s", err, ddl)
		}
	}
}
