package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/odbis/odbis"
	"github.com/odbis/odbis/internal/mddws"
	"github.com/odbis/odbis/internal/netsrv"
	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/olap"
	"github.com/odbis/odbis/internal/proto"
	"github.com/odbis/odbis/internal/security"
	"github.com/odbis/odbis/internal/server"
	"github.com/odbis/odbis/internal/services"
	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/tenant"
)

// The traced pass measures each layer from outside: one client issues
// every sampled statement at every rung of the stack - a hand-written
// storage equivalent, sql.DB, tenant.Catalog, services.Session, the
// door - and a layer's self time is its rung's p50 minus the rung
// below. It never feeds the end-to-end numbers.

// stack is the platform assembled from the internal constructors in the
// order odbis.Open uses, because the ladder needs the engine handle
// that odbis.Platform does not export.
type stack struct {
	engine   *storage.Engine
	registry *tenant.Registry
	svc      *services.Platform
	handler  http.Handler
	netsrv   *netsrv.Server
	addr     net.Addr
}

func assemble(dataDir string) (front, error) {
	engine, err := storage.Open(storage.Options{Dir: dataDir, Sync: storage.SyncBuffered})
	if err != nil {
		return nil, err
	}
	s := &stack{engine: engine}
	fail := func(err error) (front, error) {
		engine.Close()
		return nil, err
	}
	if s.registry, err = tenant.NewRegistry(engine); err != nil {
		return fail(err)
	}
	sec, err := security.NewManager(engine, security.Options{})
	if err != nil {
		return fail(err)
	}
	s.svc = services.NewPlatform(s.registry, sec)
	if err := s.svc.Bootstrap(adminUser, adminPass); err != nil {
		return fail(err)
	}
	if _, err := mddws.NewService(engine); err != nil {
		return fail(err)
	}
	s.svc.StartScheduler(context.Background(), 0)
	adm := server.NewAdmission(0, 0)
	s.handler = server.NewWithOptions(s.svc, server.Options{Admission: adm})
	s.netsrv = netsrv.New(s.svc, netsrv.Options{
		Admission: adm, RetryBackoff: time.Second, Ready: engine.WALHealthy,
	})
	if s.addr, err = s.netsrv.Listen("127.0.0.1:0"); err != nil {
		s.svc.Close()
		return fail(err)
	}
	return s, nil
}

func (s *stack) Login(user, pass string) (*odbis.Session, string, error) {
	return s.svc.Login(user, pass)
}
func (s *stack) Handler() http.Handler { return s.handler }
func (s *stack) ProtoAddr() net.Addr   { return s.addr }

// Close follows odbis.Platform.Close.
func (s *stack) Close() error {
	s.netsrv.Close()
	s.svc.Close()
	s.registry.FlushUsage()
	if err := s.engine.Checkpoint(); err != nil {
		s.engine.Close()
		return err
	}
	return s.engine.Close()
}

// span is one timed call into a rung. Spans of one operation share Op;
// Parent is the rung above, the span that would have caused this call
// inside a real request.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// rung is one level of the ladder: a way to run an operation that
// enters the stack at that layer.
type rung struct {
	name string
	// metric is the per-layer metric the rung's self time reports as.
	metric string
	call   func(ctx context.Context, o op) (reply, error)
}

// ladder holds the handles every rung calls into.
type ladder struct {
	env    *env
	w      *workload
	seed   int64
	engine *storage.Engine
	db     *sql.DB
	// chains holds each ladder's rungs, bottom first, by chain name.
	chains map[string][]rung
	// per tenant
	cats  []*tenant.Catalog
	sess  []*odbis.Session
	phys  []string
	pkeys []string
}

func newLadder(e *env, w *workload, seed int64) (*ladder, error) {
	st := e.platform.(*stack)
	l := &ladder{env: e, w: w, seed: seed, engine: st.engine, db: sql.NewDB(st.engine)}
	for _, t := range e.tenants {
		cat, err := st.registry.Catalog(t.name)
		if err != nil {
			return nil, err
		}
		sess, _, err := st.svc.Login(t.user, userPass)
		if err != nil {
			return nil, err
		}
		phys := cat.Physical("sales")
		idx, err := st.engine.Indexes(phys)
		if err != nil {
			return nil, err
		}
		pkey := ""
		for _, ix := range idx {
			if ix.Unique && len(ix.Columns) == 1 && ix.Columns[0] == "id" {
				pkey = ix.Name
			}
		}
		if pkey == "" {
			return nil, fmt.Errorf("no primary-key index on %s", phys)
		}
		l.cats, l.sess = append(l.cats, cat), append(l.sess, sess)
		l.phys, l.pkeys = append(l.phys, phys), append(l.pkeys, pkey)
	}
	l.buildChains()
	return l, nil
}

// chainOf names the ladder an operation kind climbs.
func chainOf(kind opKind) string {
	switch kind {
	case opReport:
		return "report"
	case opCube:
		return "cube"
	}
	return "sql"
}

// buildChains lists the rungs of each ladder, bottom first.
func (l *ladder) buildChains() {
	door := rung{name: "door", metric: "wire_bin.self_us", call: func(ctx context.Context, o op) (reply, error) {
		return l.env.send(ctx, l.w, o)
	}}
	if l.w.http {
		door.metric = "server.self_us"
	}
	l.chains = map[string][]rung{
		"sql": {
			{name: "storage", metric: "storage.self_us", call: l.storageCall},
			{name: "sql", metric: "sql.self_us", call: l.sqlCall},
			{name: "tenant", metric: "tenant.self_us", call: l.tenantCall},
			{name: "services", metric: "services.self_us", call: l.servicesCall},
			door,
		},
		"report": {
			{name: "report.elements", call: l.reportElements},
			{name: "report", metric: "report.self_us", call: l.runReport},
			door,
		},
		"cube": {{name: "olap", metric: "olap.self_us", call: l.analyze}, door},
	}
}

// --- rungs ---

// storageCall is the hand-written equivalent of the statement: what
// the engine has to do for it, with no SQL above.
func (l *ladder) storageCall(ctx context.Context, o op) (reply, error) {
	phys := l.phys[o.tenant]
	var r reply
	switch o.kind {
	case opPoint:
		err := l.engine.ViewCtx(ctx, func(tx *storage.Tx) error {
			return tx.LookupEqual(phys, l.pkeys[o.tenant], o.args, func(_ storage.RID, row storage.Row) bool {
				r.rows = append(r.rows, storage.Row{row[0], row[1], row[4]})
				return true
			})
		})
		return r, err
	case opInsert:
		err := l.engine.UpdateCtx(ctx, func(tx *storage.Tx) error {
			_, err := tx.Insert(phys, storage.Row(o.args))
			return err
		})
		r.affected = 1
		return r, err
	}
	q := o.agg
	groups := map[string][]float64{}
	err := l.engine.ViewCtx(ctx, func(tx *storage.Tx) error {
		return tx.ScanBatches(phys, 256, func(b *storage.Batch) error {
			regionCol, categoryCol, qtyCol, amountCol := b.Cols[1], b.Cols[2], b.Cols[3], b.Cols[4]
			for i := 0; i < b.Len(); i++ {
				qty := qtyCol[i].(int64)
				if q.filtered && qty <= o.threshold {
					continue
				}
				key := ""
				switch q.group {
				case "region":
					key = regionCol[i].(string)
				case "category":
					key = categoryCol[i].(string)
				}
				acc := groups[key]
				if acc == nil {
					acc = make([]float64, len(q.aggs))
					groups[key] = acc
				}
				for a, agg := range q.aggs {
					switch agg {
					case "sum_amount":
						acc[a] += amountCol[i].(float64)
					case "sum_qty":
						acc[a] += float64(qty)
					default:
						acc[a]++
					}
				}
			}
			return nil
		})
	})
	if err != nil {
		return r, err
	}
	if q.group == "" && len(groups) == 0 {
		groups[""] = make([]float64, len(q.aggs))
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		row := make(storage.Row, 0, 1+len(q.aggs))
		if q.group != "" {
			row = append(row, k)
		}
		for _, v := range groups[k] {
			row = append(row, v)
		}
		r.rows = append(r.rows, row)
	}
	return r, nil
}

func fromResult(res *sql.Result, err error) (reply, error) {
	if err != nil {
		return reply{}, err
	}
	return reply{rows: res.Rows, affected: res.Affected, result: res}, nil
}

// sqlCall runs the physical statement (table name already in the
// tenant's namespace) on sql.DB.
func (l *ladder) sqlCall(ctx context.Context, o op) (reply, error) {
	physical := strings.Replace(o.sql, " sales", " "+l.phys[o.tenant], 1)
	return fromResult(l.db.QueryContext(ctx, physical, o.args...))
}

func (l *ladder) tenantCall(ctx context.Context, o op) (reply, error) {
	ctx = tenant.NewContext(ctx, l.env.tenants[o.tenant].name)
	return fromResult(l.cats[o.tenant].Query(ctx, o.sql, o.args...))
}

func (l *ladder) servicesCall(ctx context.Context, o op) (reply, error) {
	return fromResult(l.sess[o.tenant].Query(ctx, o.sql, o.args...))
}

// reportElements runs the saved report's element queries one by one on
// the tenant catalog, the Queryer report.Run itself is handed: what the
// report costs below the report layer.
func (l *ladder) reportElements(ctx context.Context, _ op) (reply, error) {
	var r reply
	ctx = tenant.NewContext(ctx, l.env.tenants[0].name)
	for _, el := range dashboardReport.Elements {
		res, err := l.cats[0].Query(ctx, el.Query)
		if err != nil {
			return r, err
		}
		r.rows = append(r.rows, res.Rows...)
	}
	return r, nil
}

func (l *ladder) runReport(ctx context.Context, _ op) (reply, error) {
	out, err := l.sess[0].RunReport(ctx, reportName)
	if err != nil {
		return reply{}, err
	}
	if len(out.Items) != 3 {
		return reply{}, fmt.Errorf("report has %d elements, want 3", len(out.Items))
	}
	return reply{}, nil
}

func (l *ladder) analyze(ctx context.Context, _ op) (reply, error) {
	res, err := l.sess[0].Analyze(ctx, cubeName, olap.Query{
		Rows:     []olap.LevelRef{{Dimension: "region", Level: "region"}},
		Cols:     []olap.LevelRef{{Dimension: "category", Level: "category"}},
		Measures: []string{"amount"},
	})
	if err != nil {
		return reply{}, err
	}
	if len(res.RowHeaders) != len(regions) || len(res.ColHeaders) != len(categories) {
		return reply{}, fmt.Errorf("cube grid is %dx%d", len(res.RowHeaders), len(res.ColHeaders))
	}
	return reply{}, nil
}

// --- counts ---

// counters is one reading of every count the per-layer metrics use.
type counters struct {
	obs   map[string]int64
	plan  sql.PlanCacheStats
	reads uint64
}

func (l *ladder) readCounters() counters {
	return counters{obs: obs.Snapshot().Counters, plan: l.db.PlanCacheStats(), reads: l.engine.Stats().Reads}
}

// delta sums the growth of every counter whose exposition key is name
// or name{...}.
func delta(before, after counters, name string) float64 {
	var d int64
	for k, v := range after.obs {
		if k == name || strings.HasPrefix(k, name+"{") {
			d += v - before.obs[k]
		}
	}
	return float64(d)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// --- the traced pass ---

// rungDoc is one rung's summary.
type rungDoc struct {
	Name   string  `json:"name"`
	Chain  string  `json:"chain"`
	N      int     `json:"n"`
	P50us  float64 `json:"p50_us"`
	SelfUs float64 `json:"self_us"`
	// Share is the self time's share of the chain's top rung.
	Share float64 `json:"share_of_top"`
}

// traceDoc is one workload's per-layer outcome.
type traceDoc struct {
	Workload  string    `json:"workload"`
	Counted   int       `json:"counted_ops"`
	Sampled   int       `json:"ladder_ops"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Correct   bool      `json:"correct"`
	Error     string    `json:"error,omitempty"`
	Rungs     []rungDoc `json:"rungs"`
	// TopP50us is the door rung's p50 inside the ladder, UntracedP50us
	// the same door's p50 in the counted pass with no ladder around it:
	// their difference is what the ladder itself costs.
	TopP50us      float64 `json:"top_rung_p50_us"`
	UntracedP50us float64 `json:"untraced_door_p50_us"`
	// Nests: every rung's p50 is at most 3% below the rung under it.
	// Reconciles: the self times sum to the top rung's p50 within 10%.
	Nests      bool              `json:"nests"`
	Reconciles bool              `json:"reconciles"`
	Metrics    map[string]metric `json:"metrics"`
}

const (
	nestSlack      = 0.03
	reconcileSlack = 0.10
	// rungIDStride separates the keys the ladder's rungs insert for one
	// sampled row.
	rungIDStride = 100_000_000
)

// traceWorkload runs the per-layer pass for w: set-up on the assembled
// stack, a counted pass through the door, then the ladder.
func traceWorkload(ctx context.Context, w *workload, seed int64, sc scale, spans *[]span) traceDoc {
	td := traceDoc{Workload: w.name, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		td.Metrics[d.name] = metric{Unit: d.unit}
	}
	timed := w.timedOps(sc)
	td.Counted = min(20000, max(20, timed/10))
	td.Sampled = min(5000, max(20, timed/10))
	data := generate(w, seed, sc)
	err := func() error {
		s, err := setUp(ctx, assemble, w, seed, sc, data, timed)
		if err != nil {
			return err
		}
		defer s.close()
		l, err := newLadder(s.env, w, seed)
		if err != nil {
			return err
		}
		st := newStream(w, seed, "timed", 0, numClients, s.rows, s.nextID)
		counted, err := l.countedPass(ctx, st, &td)
		if err != nil {
			return err
		}
		if err := l.climb(ctx, st, &td, spans); err != nil {
			return err
		}
		if !w.onDisk {
			return nil
		}
		if err := s.stop(); err != nil {
			return err
		}
		disk, err := dirBytes(s.dataDir)
		if err != nil {
			return err
		}
		user := data[0].bytes
		for _, r := range append(s.warm.acked, counted...) {
			user += r.userBytes()
		}
		// The ladder's own inserts are on disk too, one per rung.
		user += td.Sampled * len(l.chains["sql"]) * data[0].bytes / len(data[0].rows)
		td.set("disk_bytes_per_user_byte", float64(disk)/float64(user), td.Counted)
		return nil
	}()
	if err != nil && td.Error == "" {
		td.Error = err.Error()
	}
	if td.Error != "" {
		td.Attempted, td.Failed = max(td.Attempted, 1), max(td.Failed, 1)
	}
	td.Correct = td.Failed == 0
	return td
}

func (td *traceDoc) set(name string, v float64, n int) {
	m := td.Metrics[name]
	m.Value, m.N = v, n
	td.Metrics[name] = m
}

// countedPass sends the next td.Counted operations of st through the
// door only and turns the counter deltas around them into the per-op
// counts and ratios. It returns the inserts the platform acknowledged.
func (l *ladder) countedPass(ctx context.Context, st *stream, td *traceDoc) ([]salesRow, error) {
	// The protocol counters are published when a session ends, so the
	// pass runs on connections of its own, closed before the second
	// reading.
	if err := l.env.redial(); err != nil {
		return nil, err
	}
	before := l.readCounters()
	counted := l.env.closedLoop(ctx, l.w, []*stream{st}, td.Counted)
	if err := l.env.redial(); err != nil {
		return nil, err
	}
	after := l.readCounters()
	td.Attempted, td.Failed = td.Counted, counted.failed
	if counted.firstErr != nil {
		return nil, counted.firstErr
	}
	n := float64(td.Counted)
	td.UntracedP50us = usP50(counted.lat[0])
	d := func(name string) float64 { return delta(before, after, name) }
	td.set("proto.bytes_out_per_op", d("odbis_proto_bytes_out_total")/n, td.Counted)
	// Every connection dialled costs one WELCOME frame; leave it out.
	td.set("proto.frames_out_per_op", (d("odbis_proto_frames_out_total")-d("odbis_proto_sessions_opened_total"))/n, td.Counted)
	td.set("services.shed_per_op", (d("odbis_http_shed_total")+d("odbis_proto_retry_total"))/n, td.Counted)
	hits, misses := float64(after.plan.Hits-before.plan.Hits), float64(after.plan.Misses-before.plan.Misses)
	td.set("sql.plan_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	td.set("sql.rows_scanned_per_row_returned", ratio(d("odbis_sql_rows_scanned_total"), float64(counted.returned)), counted.returned)
	td.set("storage.reads_per_op", float64(after.reads-before.reads)/n, td.Counted)
	td.set("storage.wal_bytes_per_op", d("odbis_wal_bytes_written_total")/n, td.Counted)
	td.set("storage.wal_syncs_per_op", d("odbis_wal_syncs_total")/n, td.Counted)
	olapHits, olapMisses := d("odbis_olap_cache_hits_total"), d("odbis_olap_cache_misses_total")
	td.set("olap.cache_hit_ratio", ratio(olapHits, olapHits+olapMisses), int(olapHits+olapMisses))
	return counted.acked, nil
}

// climb issues the next td.Sampled operations of st at every rung of
// their chain, the rungs in a fresh random order per operation so that
// neither drift nor who fills a cache first favours a rung, and
// summarises the rungs into self times.
func (l *ladder) climb(ctx context.Context, st *stream, td *traceDoc, spans *[]span) error {
	w := l.w
	order := rand.New(rand.NewSource(streamSeed(l.seed, w.name+"/order", 0)))
	durs := map[string][]time.Duration{} // chain + "/" + rung
	chainOps := map[string]int{}
	var codec, parse []time.Duration
	var cdc codecBench
	origin := time.Now()
	for i := 0; i < td.Sampled; i++ {
		o := st.next()
		name := chainOf(o.kind)
		chain := l.chains[name]
		chainOps[name]++
		for _, r := range order.Perm(len(chain)) {
			ro := o
			if o.kind == opInsert {
				// Each rung needs its own key for the same row.
				ro.row.id += int64(r+1) * rungIDStride
				ro.args = ro.row.values()
			}
			t0 := time.Now()
			rep, err := chain[r].call(ctx, ro)
			t1 := time.Now()
			td.Attempted++
			// The report and cube rungs below the door check themselves.
			if err == nil && (name == "sql" || r == len(chain)-1) {
				err = l.env.check(w, ro, rep)
			}
			if err == nil && chain[r].name == "services" && !w.http {
				var d time.Duration
				d, err = cdc.roundTrip(ro, rep.result)
				codec = append(codec, d)
			}
			if err != nil {
				td.Failed++
				if td.Error == "" {
					td.Error = fmt.Sprintf("%s rung %s op %d (%s): %v", w.name, chain[r].name, i, o.sql, err)
				}
				continue
			}
			durs[name+"/"+chain[r].name] = append(durs[name+"/"+chain[r].name], t1.Sub(t0))
			parent := ""
			if r+1 < len(chain) {
				parent = chain[r+1].name
			}
			*spans = append(*spans, span{Workload: w.name, Op: i, Name: chain[r].name, Parent: parent,
				StartNs: t0.Sub(origin).Nanoseconds(), EndNs: t1.Sub(origin).Nanoseconds()})
		}
		if o.sql != "" {
			t0 := time.Now()
			_, err := sql.Parse(o.sql)
			parse = append(parse, time.Since(t0))
			if err != nil {
				return err
			}
		}
	}
	if td.Failed > 0 {
		return nil
	}
	td.set("proto.codec_us", usP50(codec), len(codec))
	td.set("sql.parse_us", usP50(parse), len(parse))

	// Chain by chain. A metric fed by two chains (the door of the
	// dashboard) is weighted by the share of operations on each.
	td.Nests, td.Reconciles = true, true
	selfs := map[string]float64{}
	for _, name := range []string{"sql", "report", "cube"} {
		if chainOps[name] == 0 {
			continue
		}
		top := usP50(durs[name+"/door"])
		if td.TopP50us == 0 {
			td.TopP50us = top
		}
		below, sum := 0.0, 0.0
		for _, r := range l.chains[name] {
			d := durs[name+"/"+r.name]
			p := usP50(d)
			if p < below*(1-nestSlack) {
				td.Nests = false
			}
			self := max(0, p-below)
			sum += self
			td.Rungs = append(td.Rungs, rungDoc{Name: r.name, Chain: name, N: len(d), P50us: p, SelfUs: self, Share: ratio(self, top)})
			if r.metric != "" {
				selfs[r.metric] += self * float64(chainOps[name]) / float64(td.Sampled)
			}
			below = p
		}
		if sum < top*(1-reconcileSlack) || sum > top*(1+reconcileSlack) {
			td.Reconciles = false
		}
	}
	for name, v := range selfs {
		td.set(name, v, td.Sampled)
	}
	return nil
}

func usP50(d []time.Duration) float64 {
	return float64(medianDuration(d)) / float64(time.Microsecond)
}

// codecBench times the wire codec in memory on an operation's real
// request and result: encode and parse the QUERY, then encode and scan
// the RESULT_HEADER, ROWS and DONE a server would stream back.
type codecBench struct {
	buf  []byte
	vals []proto.RawValue
}

func (c *codecBench) roundTrip(o op, res *sql.Result) (time.Duration, error) {
	t0 := time.Now()
	var err error
	if c.buf, err = proto.AppendQuery(c.buf[:0], 1, o.sql, o.args); err == nil {
		_, _, _, err = proto.ParseQuery(c.buf)
	}
	if err == nil {
		c.buf = proto.AppendResultHeader(c.buf[:0], 1, res.Columns)
		_, _, err = proto.ParseResultHeader(c.buf)
	}
	if err == nil && len(res.Rows) > 0 {
		if c.buf, err = proto.AppendRows(c.buf[:0], 1, res.Rows); err == nil {
			var rr *proto.RowReader
			if rr, err = proto.NewRowReader(c.buf); err == nil {
				for rr.Remaining() > 0 && err == nil {
					c.vals, err = rr.Scan(c.vals)
				}
			}
		}
	}
	if err == nil {
		c.buf = proto.AppendDone(c.buf[:0], 1, uint32(res.Affected), uint32(len(res.Rows)), res.Plan)
		_, _, _, _, err = proto.ParseDone(c.buf)
	}
	if err != nil {
		err = fmt.Errorf("proto round trip: %w", err)
	}
	return time.Since(t0), err
}
