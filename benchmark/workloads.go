package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"github.com/odbis/odbis"
	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

// opKind selects how an operation is sent and checked.
type opKind uint8

const (
	opPoint opKind = iota
	opAgg
	opInsert
	opReport
	opCube
)

// op is one generated operation. Streams of ops are a pure function of
// (workload, seed, phase, client), which the determinism test pins.
type op struct {
	kind   opKind
	tenant int
	sql    string
	args   []storage.Value
	// row is the row an insert writes; a point get sets only its id.
	row salesRow
	// agg and threshold are an aggregate's shape and its argument.
	agg       aggQuery
	threshold int64
}

func (o op) write() bool { return o.kind == opInsert }

// workload is one traffic mix. ops is the frozen timed operation count
// of a reference-length run (BENCHMARK.json run_seconds); a run given
// another -seconds scales it linearly, so the work is fixed by the
// arguments and never by how fast the build under test is.
type workload struct {
	name string
	why  string
	http bool
	// onDisk boots the platform over a DataDir.
	onDisk bool
	// mutable marks a table that grows during the run: aggregates are
	// then checked as lower bounds, and the final state exactly.
	mutable bool
	tenants int
	rows    int // per tenant
	ops     int
	// zipf draws the tenant Zipf(1.1) instead of always tenant 0.
	zipf bool
	// dashboard saves the report and builds the cube during set-up.
	dashboard bool
	// mustNest makes a full traced run fail when this workload's rungs do
	// not nest or reconcile: its statement has one shape and no cache
	// miss, so a violation is a measurement fault, not noise.
	mustNest bool
	queries  []aggQuery
	// draw picks the next operation kind from the stream's rng.
	draw func(rng *rand.Rand) opKind
}

const (
	reportName = "ops-dash"
	cubeName   = "sales"
	topN       = 10
)

var workloads = []*workload{
	{
		name: "point_get.bin",
		why:  "one index probe per op, so client+proto+netsrv+services are most of the latency and the plan cache always hits; scan changes must not show here",
		rows: 20000, tenants: 1, ops: 560000, mustNest: true,
		draw: func(*rand.Rand) opKind { return opPoint },
	},
	{
		name: "point_get.http",
		why:  "the identical statement stream over POST /api/query: JSON and the per-request token check dominate; gives binary/http like for like",
		http: true, rows: 20000, tenants: 1, ops: 150000,
		draw: func(*rand.Rand) opKind { return opPoint },
	},
	{
		name: "dash_scan.bin",
		why:  "read-only dashboard aggregates over 20k rows: sql execution over storage batch scans is most of the time, the wire almost none",
		rows: 20000, tenants: 1, ops: 3600, queries: dashQueries, mustNest: true,
		draw: func(*rand.Rand) opKind { return opAgg },
	},
	{
		name: "tenants64.bin",
		why:  "64 tenants x 8 texts = 512 (tenant, SQL) keys against the 256-entry plan cache over tiny tables: parse, tenant rewrite and plan dominate",
		rows: 200, tenants: 64, ops: 120000, zipf: true, queries: tenantQueries,
		draw: func(*rand.Rand) opKind { return opAgg },
	},
	{
		name:   "ingest.wal",
		why:    "write-only single-row INSERTs into the indexed 20k-row table on an on-disk DataDir: WAL append, commit, index maintenance and the quota count",
		onDisk: true, mutable: true, rows: 20000, tenants: 1, ops: 6000, mustNest: true,
		draw: func(*rand.Rand) opKind { return opInsert },
	},
	{
		name:    "mixed_rw.bin",
		why:     "80% dashboard reads and 20% inserts on one table: readers and writers contend for the engine lock and the growing version array",
		mutable: true, rows: 20000, tenants: 1, ops: 5200, queries: dashQueries,
		draw: func(rng *rand.Rand) opKind {
			if rng.Intn(100) < 20 {
				return opInsert
			}
			return opAgg
		},
	},
	{
		name: "dashboard.http",
		why:  "the paper's Fig. 6 flow: 70% saved three-element report as JSON, 30% cube query; report rendering and olap do the work",
		http: true, dashboard: true, rows: 20000, tenants: 1, ops: 1800,
		draw: func(rng *rand.Rand) opKind {
			if rng.Intn(100) < 30 {
				return opCube
			}
			return opReport
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stream generates one client's operations for one phase ("warm" or
// "timed").
type stream struct {
	w      *workload
	rng    *rand.Rand
	zipf   *rand.Zipf
	rows   int
	nextID int64
	idStep int64
}

// newStream derives the client's rand stream from the seed. Inserted
// ids are unique across phases and clients: firstID is the phase's
// first free id, and client c takes every clients-th id from firstID+c.
func newStream(w *workload, seed int64, phase string, client, clients, rows int, firstID int64) *stream {
	s := &stream{
		w:      w,
		rng:    rand.New(rand.NewSource(streamSeed(seed, w.name+"/"+phase, client))),
		rows:   rows,
		nextID: firstID + int64(client),
		idStep: int64(clients),
	}
	if w.zipf {
		s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(w.tenants-1))
	}
	return s
}

func (s *stream) next() op {
	o := op{kind: s.w.draw(s.rng)}
	if s.zipf != nil {
		o.tenant = int(s.zipf.Uint64())
	}
	switch o.kind {
	case opPoint:
		id := int64(1 + s.rng.Intn(s.rows))
		o.sql, o.args = pointSQL, []storage.Value{id}
		o.row.id = id
	case opAgg:
		o.agg = s.w.queries[s.rng.Intn(len(s.w.queries))]
		o.sql = o.agg.sql()
		if o.agg.filtered {
			o.threshold = int64(s.rng.Intn(maxQty))
			o.args = []storage.Value{o.threshold}
		}
	case opInsert:
		o.row = drawRow(s.rng, s.nextID)
		s.nextID += s.idStep
		o.sql, o.args = insertSQL, o.row.values()
	}
	return o
}

// --- sending and checking ---

// reportReply and cubeReply decode the dashboard responses.
type reportReply struct {
	Items []struct {
		Kind  string `json:"kind"`
		Value string `json:"value"`
		Grid  *struct {
			Rows []storage.Row
		} `json:"grid"`
		Chart *struct {
			Labels []string
			Series []struct{ Values []float64 }
		} `json:"chart"`
	} `json:"items"`
}

type cubeReply struct {
	RowHeaders []storage.Row
	ColHeaders []storage.Row
	Cells      [][][]float64
}

var cubeQueryBody = map[string]any{
	"rows":     []map[string]string{{"Dimension": "region", "Level": "region"}},
	"cols":     []map[string]string{{"Dimension": "category", "Level": "category"}},
	"measures": []string{"amount"},
}

// reply is what an operation returned, in the form its check reads.
type reply struct {
	rows     []storage.Row
	affected int
	report   reportReply
	cube     cubeReply
	// result is the in-process result behind rows, set by the ladder's
	// rungs below the door.
	result *sql.Result
}

// returned counts the rows or cells the reply carried.
func (r reply) returned() int {
	n := len(r.rows)
	for _, it := range r.report.Items {
		switch {
		case it.Grid != nil:
			n += len(it.Grid.Rows)
		case it.Chart != nil:
			n += len(it.Chart.Labels)
		default:
			n++
		}
	}
	for _, row := range r.cube.Cells {
		n += len(row)
	}
	return n
}

// send issues one operation through the workload's door. Its duration
// is the operation's latency; check runs after the clock stops.
func (e *env) send(ctx context.Context, w *workload, o op) (reply, error) {
	t := e.tenants[o.tenant]
	var r reply
	var err error
	switch {
	case o.kind == opReport:
		err = e.httpJSON(ctx, t, http.MethodGet, "/api/reports/"+reportName+"?format=json", nil, &r.report)
	case o.kind == opCube:
		err = e.httpJSON(ctx, t, http.MethodPost, "/api/cubes/"+cubeName+"/query", cubeQueryBody, &r.cube)
	case w.http:
		r.rows, r.affected, err = e.httpQuery(ctx, t, o.sql, o.args)
	default:
		r.rows, r.affected, err = t.binQuery(ctx, o.sql, o.args)
	}
	return r, err
}

// check verifies one reply against what the generator knows.
func (e *env) check(w *workload, o op, r reply) error {
	d := e.tenants[o.tenant].data
	switch o.kind {
	case opPoint:
		row := d.rows[o.row.id-1]
		want := []storage.Row{{float64(row.id), regions[row.region], row.amount}}
		return sameRows(r.rows, want, false)
	case opAgg:
		return sameRows(r.rows, d.answers[answerKey{o.sql, o.threshold}], w.mutable)
	case opInsert:
		if r.affected != 1 {
			return fmt.Errorf("insert id %d affected %d rows", o.row.id, r.affected)
		}
	case opReport:
		return d.checkReport(r.report)
	case opCube:
		return d.checkCube(r.cube)
	}
	return nil
}

func (d *dataset) checkReport(r reportReply) error {
	if len(r.Items) != 3 {
		return fmt.Errorf("report has %d elements, want 3", len(r.Items))
	}
	if want := fmt.Sprintf("%.2f", d.total); r.Items[0].Value != want {
		return fmt.Errorf("report KPI %q, want %q", r.Items[0].Value, want)
	}
	chart := r.Items[1].Chart
	if chart == nil || len(chart.Labels) != len(regions) || len(chart.Series) != 1 || len(chart.Series[0].Values) != len(regions) {
		return fmt.Errorf("report chart does not carry %d labels and values", len(regions))
	}
	if g := r.Items[2].Grid; g == nil || len(g.Rows) != topN {
		return fmt.Errorf("report table does not carry %d rows", topN)
	}
	return nil
}

func (d *dataset) checkCube(r cubeReply) error {
	if len(r.RowHeaders) != len(regions) || len(r.ColHeaders) != len(categories) || len(r.Cells) != len(regions) {
		return fmt.Errorf("cube grid is %dx%d, want %dx%d", len(r.RowHeaders), len(r.ColHeaders), len(regions), len(categories))
	}
	var got float64
	for _, row := range r.Cells {
		if len(row) != len(categories) {
			return fmt.Errorf("cube row has %d cells, want %d", len(row), len(categories))
		}
		for _, cell := range row {
			if len(cell) != 1 {
				return fmt.Errorf("cube cell has %d measures, want 1", len(cell))
			}
			got += cell[0]
		}
	}
	if math.Abs(got-d.total) > 1e-6*math.Max(1, d.total) {
		return fmt.Errorf("cube cells sum to %v, want %v", got, d.total)
	}
	return nil
}

// --- set-up ---

// dashboardReport is the saved three-element report of dashboard.http:
// a KPI, a grouped bar chart and a top-10 table over sales. The table
// ranks one region's rows, found through the region index: ranking all
// 20k rows sorts for 40 ms and would make this one more sql workload.
var dashboardReport = &odbis.ReportSpec{
	Name:  reportName,
	Title: "Operations dashboard",
	Elements: []odbis.ReportElement{
		{Kind: "kpi", Title: "Revenue", Query: "SELECT SUM(amount) FROM sales", Format: "%.2f"},
		{Kind: "chart", Title: "Revenue by region", Chart: odbis.ChartBar, Label: "region",
			Query: "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region"},
		{Kind: "table", Title: "Largest sales", Limit: topN,
			Query: fmt.Sprintf("SELECT id, region, amount FROM sales WHERE region = '%s' ORDER BY amount DESC LIMIT %d", regions[0], topN)},
	},
}

// prepare loads every tenant and, for the dashboard, saves the report
// and builds the cube. The datasets were generated by the caller.
func (e *env) prepare(ctx context.Context, w *workload) error {
	for _, t := range e.tenants {
		if err := e.load(ctx, t); err != nil {
			return err
		}
	}
	if !w.dashboard {
		return nil
	}
	sess, _, err := e.platform.Login(e.tenants[0].user, userPass)
	if err != nil {
		return err
	}
	if err := sess.SaveReport(ctx, "ops", dashboardReport); err != nil {
		return err
	}
	err = sess.DefineCube(ctx, odbis.CubeSpec{
		Name:      cubeName,
		FactTable: "sales",
		Measures:  []odbis.MeasureSpec{{Name: "amount", Column: "amount", Agg: odbis.AggSum}},
		Dimensions: []odbis.DimensionSpec{
			{Name: "region", Levels: []odbis.CubeLevelSpec{{Name: "region", Column: "region"}}},
			{Name: "category", Levels: []odbis.CubeLevelSpec{{Name: "category", Column: "category"}}},
		},
	})
	if err != nil {
		return err
	}
	_, err = sess.BuildCube(ctx, cubeName)
	return err
}
