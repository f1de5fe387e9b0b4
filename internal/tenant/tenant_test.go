package tenant

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

func newRegistry(t *testing.T) *Registry {
	t.Helper()
	e := storage.MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	r, err := NewRegistry(e)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCreateAndLookup(t *testing.T) {
	r := newRegistry(t)
	info, err := r.Create("acme", "Acme Corp", "standard")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Active || info.Plan != "standard" {
		t.Errorf("info = %+v", info)
	}
	if _, err := r.Create("acme", "again", "free"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := r.Create("Bad ID!", "x", "free"); !errors.Is(err, ErrBadTenantID) {
		t.Errorf("bad id: %v", err)
	}
	if _, err := r.Create("x", "x", "platinum"); !errors.Is(err, ErrUnknownPlan) {
		t.Errorf("bad plan: %v", err)
	}
	if _, err := r.Get("ghost"); !errors.Is(err, ErrNoTenant) {
		t.Errorf("missing tenant: %v", err)
	}
	r.Create("beta", "Beta", "free")
	ids, _ := r.List()
	if len(ids) != 2 || ids[0] != "acme" {
		t.Errorf("list = %v", ids)
	}
}

func TestCatalogIsolation(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	r.Create("b", "B", "standard")
	ca, err := r.Catalog("a")
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := r.Catalog("b")

	// Same logical table name, different physical tables.
	if _, err := ca.Exec(context.Background(), "CREATE TABLE sales (id INT PRIMARY KEY, amount FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Exec(context.Background(), "CREATE TABLE sales (id INT PRIMARY KEY, amount FLOAT)"); err != nil {
		t.Fatal(err)
	}
	ca.Exec(context.Background(), "INSERT INTO sales VALUES (1, 10.0), (2, 20.0)")
	cb.Exec(context.Background(), "INSERT INTO sales VALUES (1, 999.0)")

	resA, err := ca.Query(context.Background(), "SELECT COUNT(*), SUM(amount) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if resA.Rows[0][0] != int64(2) || resA.Rows[0][1] != 30.0 {
		t.Errorf("tenant a sees %v", resA.Rows[0])
	}
	resB, _ := cb.Query(context.Background(), "SELECT COUNT(*), SUM(amount) FROM sales")
	if resB.Rows[0][0] != int64(1) {
		t.Errorf("tenant b sees %v", resB.Rows[0])
	}
	// Physical names carry the tenant prefix in the shared engine.
	shared := r.Engine().Tables()
	foundA, foundB := false, false
	for _, tbl := range shared {
		if tbl == "t_a__sales" {
			foundA = true
		}
		if tbl == "t_b__sales" {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Errorf("physical tables = %v", shared)
	}
	if tables := ca.Tables(); len(tables) != 1 || tables[0] != "sales" {
		t.Errorf("logical tables = %v", tables)
	}
}

func TestCatalogJoinsAndAliases(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	c, _ := r.Catalog("a")
	c.Exec(context.Background(), "CREATE TABLE d (id INT PRIMARY KEY, name TEXT)")
	c.Exec(context.Background(), "CREATE TABLE f (d_id INT, v INT)")
	c.Exec(context.Background(), "INSERT INTO d VALUES (1, 'x'), (2, 'y')")
	c.Exec(context.Background(), "INSERT INTO f VALUES (1, 10), (1, 5), (2, 1)")
	res, err := c.Query(context.Background(), `
		SELECT d.name, SUM(f.v) AS total
		FROM f JOIN d ON f.d_id = d.id
		GROUP BY d.name ORDER BY d.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1] != int64(15) {
		t.Errorf("rows = %v", res.Rows)
	}
	// Subqueries are rewritten too.
	res, err = c.Query(context.Background(), "SELECT name FROM d WHERE id IN (SELECT d_id FROM f WHERE v > 9)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "x" {
		t.Errorf("subquery rows = %v", res.Rows)
	}
}

func TestSuspendResume(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "free")
	c, _ := r.Catalog("a")
	c.Exec(context.Background(), "CREATE TABLE t (x INT)")
	if err := r.Suspend("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Catalog("a"); !errors.Is(err, ErrSuspended) {
		t.Errorf("catalog for suspended tenant: %v", err)
	}
	// An already-open catalog is blocked at the next statement.
	if _, err := c.Query(context.Background(), "SELECT * FROM t"); !errors.Is(err, ErrSuspended) {
		t.Errorf("query on suspended tenant: %v", err)
	}
	r.Resume("a")
	if _, err := c.Query(context.Background(), "SELECT * FROM t"); err != nil {
		t.Errorf("after resume: %v", err)
	}
}

func TestQuotas(t *testing.T) {
	r := newRegistry(t)
	r.DefinePlan(Plan{Name: "tiny", MaxTables: 1, MaxRows: 3})
	r.Create("a", "A", "tiny")
	c, _ := r.Catalog("a")
	if _, err := c.Exec(context.Background(), "CREATE TABLE t1 (x INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "CREATE TABLE t2 (x INT)"); !errors.Is(err, ErrQuota) {
		t.Errorf("table quota: %v", err)
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO t1 VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO t1 VALUES (4)"); !errors.Is(err, ErrQuota) {
		t.Errorf("row quota: %v", err)
	}
	// Upgrading the plan lifts the quota.
	if err := r.SetPlan("a", "enterprise"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO t1 VALUES (4)"); err != nil {
		t.Errorf("after upgrade: %v", err)
	}
}

func TestMeteringAndInvoice(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	c, _ := r.Catalog("a")
	c.Exec(context.Background(), "CREATE TABLE t (x INT)")
	c.Exec(context.Background(), "INSERT INTO t VALUES (1), (2)")
	c.Query(context.Background(), "SELECT * FROM t")
	c.Query(context.Background(), "SELECT COUNT(*) FROM t")
	usage, err := r.Usage("a")
	if err != nil {
		t.Fatal(err)
	}
	// 4 statements total (CREATE + INSERT + 2 SELECT).
	if usage[MetricQueries] != 4 {
		t.Errorf("queries = %d", usage[MetricQueries])
	}
	if usage[MetricRowsLoaded] != 2 {
		t.Errorf("rows loaded = %d", usage[MetricRowsLoaded])
	}
	inv, err := r.Invoice("a")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Plan != "standard" || inv.Total <= 49 {
		t.Errorf("invoice = %+v", inv)
	}
	found := false
	for _, l := range inv.Lines {
		if strings.Contains(l.Item, "queries") && l.Qty == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("invoice lines = %+v", inv.Lines)
	}
}

func TestDropTenantRemovesPhysicalTables(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	r.Create("b", "B", "standard")
	ca, _ := r.Catalog("a")
	cb, _ := r.Catalog("b")
	ca.Exec(context.Background(), "CREATE TABLE t (x INT)")
	cb.Exec(context.Background(), "CREATE TABLE t (x INT)")
	if err := r.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("a"); !errors.Is(err, ErrNoTenant) {
		t.Errorf("dropped tenant still present: %v", err)
	}
	for _, tbl := range r.Engine().Tables() {
		if strings.HasPrefix(tbl, "t_a__") {
			t.Errorf("orphan physical table %s", tbl)
		}
	}
	// Tenant b untouched.
	if !cb.HasTable("t") {
		t.Error("tenant b lost its table")
	}
}

func TestSchemaLogicalName(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	c, _ := r.Catalog("a")
	c.Exec(context.Background(), "CREATE TABLE orders (id INT PRIMARY KEY)")
	s, err := c.Schema("orders")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "orders" {
		t.Errorf("schema name = %q", s.Name)
	}
	if !c.HasTable("orders") || c.HasTable("ghost") {
		t.Error("HasTable wrong")
	}
	if c.Physical("orders") != "t_a__orders" {
		t.Errorf("physical = %q", c.Physical("orders"))
	}
}

func TestPlans(t *testing.T) {
	r := newRegistry(t)
	if _, err := r.Plan("standard"); err != nil {
		t.Error(err)
	}
	if _, err := r.Plan("ghost"); !errors.Is(err, ErrUnknownPlan) {
		t.Errorf("missing plan: %v", err)
	}
	if err := r.DefinePlan(Plan{}); err == nil {
		t.Error("unnamed plan accepted")
	}
	if err := r.SetPlan("nobody", "standard"); !errors.Is(err, ErrNoTenant) {
		t.Errorf("set plan on missing tenant: %v", err)
	}
}

// TestPrepareRunsOnTheGivenEngine: a handle prepared for a second engine
// — a replica built from the primary's dump, then left behind — reads
// that engine's rows through that engine's plan cache, with the same
// namespace rewrite and metering as a primary read.
func TestPrepareRunsOnTheGivenEngine(t *testing.T) {
	r := newRegistry(t)
	r.Create("acme", "Acme", "standard")
	cat, err := r.Catalog("acme")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mustExec := func(q string) {
		t.Helper()
		if _, err := cat.Exec(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TABLE sales (region TEXT, amount INT)")
	mustExec("INSERT INTO sales VALUES ('north', 10), ('south', 20)")

	var dump bytes.Buffer
	if err := r.Engine().DumpState(&dump); err != nil {
		t.Fatal(err)
	}
	replica, err := storage.OpenFromDump(dump.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	mustExec("INSERT INTO sales VALUES ('west', 30)") // the primary moves on; the replica does not

	const q = "SELECT region FROM sales ORDER BY region"
	regions := func(res *sql.Result) string {
		var out []string
		for _, row := range res.Rows {
			out = append(out, row[0].(string))
		}
		return strings.Join(out, ",")
	}
	res, err := cat.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := regions(res); got != "north,south,west" {
		t.Fatalf("primary rows = %s", got)
	}

	primaryBefore, replicaBefore := sql.NewDB(r.Engine()).PlanCacheStats(), sql.NewDB(replica).PlanCacheStats()
	queriesBefore := r.pendingFor("acme", MetricQueries)
	for i := 0; i < 2; i++ {
		st, err := cat.Prepare(replica, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cat.Run(ctx, st)
		if err != nil {
			t.Fatal(err)
		}
		if got := regions(res); got != "north,south" {
			t.Fatalf("read %d prepared for the replica returned %s, want the replica's rows north,south", i, got)
		}
	}
	if got := sql.NewDB(r.Engine()).PlanCacheStats(); got != primaryBefore {
		t.Errorf("primary plan cache moved %+v -> %+v on replica reads", primaryBefore, got)
	}
	got := sql.NewDB(replica).PlanCacheStats()
	if got.Misses != replicaBefore.Misses+1 || got.Hits != replicaBefore.Hits+1 {
		t.Errorf("replica plan cache %+v -> %+v, want one miss then one hit", replicaBefore, got)
	}
	if n := r.pendingFor("acme", MetricQueries) - queriesBefore; n != 2 {
		t.Errorf("replica reads metered %d queries, want 2", n)
	}
}

func (r *Registry) pendingFor(id, metric string) int64 {
	r.recMu.Lock()
	defer r.recMu.Unlock()
	return r.pending[id+"|"+metric]
}
