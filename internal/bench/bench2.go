package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/odbis/odbis/internal/bus"
	"github.com/odbis/odbis/internal/etl"
	"github.com/odbis/odbis/internal/mddws"
	"github.com/odbis/odbis/internal/mddws/process"
	"github.com/odbis/odbis/internal/metamodel/cwm"
	"github.com/odbis/odbis/internal/olap"
	"github.com/odbis/odbis/internal/rules"
	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/storage/orm"
	"github.com/odbis/odbis/internal/workload"
)

// starOfSize builds a conceptual star schema with d dimensions (3 levels
// and 2 attributes each) and one fact with d measures.
func starOfSize(d int) (cwm.StarSpec, error) {
	spec := cwm.StarSpec{Name: fmt.Sprintf("Star%d", d)}
	var dimNames []string
	for i := 0; i < d; i++ {
		name := fmt.Sprintf("Dim%02d", i)
		dimNames = append(dimNames, name)
		spec.Dimensions = append(spec.Dimensions, cwm.DimensionSpec{
			Name: name,
			Levels: []cwm.LevelSpec{
				{Name: fmt.Sprintf("L%d_coarse", i)},
				{Name: fmt.Sprintf("L%d_mid", i), Attributes: []cwm.AttributeSpec{
					{Name: fmt.Sprintf("attr%d_a", i)},
				}},
				{Name: fmt.Sprintf("L%d_fine", i), Attributes: []cwm.AttributeSpec{
					{Name: fmt.Sprintf("attr%d_b", i), Datatype: "number"},
				}},
			},
		})
	}
	fact := cwm.FactSpec{Name: "Fact", Dimensions: dimNames}
	for i := 0; i < d; i++ {
		fact.Measures = append(fact.Measures, cwm.MeasureSpec{Name: fmt.Sprintf("m%02d", i), Aggregation: "sum"})
	}
	spec.Facts = []cwm.FactSpec{fact}
	return spec, nil
}

// E3MDAPipeline exercises Fig. 2: the full CIM→PIM→PSM→code derivation
// swept over conceptual model sizes.
func E3MDAPipeline(quick bool) (*Table, error) {
	sizes := []int{2, 4, 8, 16}
	iters := 20
	if quick {
		sizes = []int{2, 4, 8}
		iters = 5
	}
	t := &Table{
		ID:      "E3 (Fig. 2)",
		Title:   "MDDWS derivation: CIM → PIM → PSM + ETL → artifacts",
		Headers: []string{"dimensions", "cim_elems", "psm_elems", "ddl_stmts", "avg_ms"},
		Claim:   "derivation cost grows roughly linearly with conceptual model size",
	}
	for _, d := range sizes {
		spec, err := starOfSize(d)
		if err != nil {
			return nil, err
		}
		cim, err := spec.Build()
		if err != nil {
			return nil, err
		}
		var result *mddws.BuildResult
		start := time.Now()
		for i := 0; i < iters; i++ {
			result, err = mddws.BuildFromConceptual(cim)
			if err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start) / time.Duration(iters)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d), fmt.Sprint(cim.Len()), fmt.Sprint(result.PSM.Len()),
			fmt.Sprint(len(result.Artifacts.DDL)), ms(elapsed),
		})
	}
	return t, nil
}

// E4Process exercises Fig. 3: a full 2TUP run per layer, swept over
// component counts (one realization iteration per component).
func E4Process(quick bool) (*Table, error) {
	counts := []int{1, 2, 4, 8}
	iters := 200
	if quick {
		iters = 50
	}
	t := &Table{
		ID:      "E4 (Fig. 3)",
		Title:   "2TUP engineering process: disciplines × iterations per layer",
		Headers: []string{"components", "steps", "avg_us_per_run", "us_per_step"},
		Claim:   "process bookkeeping is negligible and linear in iterations (5 realization steps per component)",
	}
	for _, n := range counts {
		var components []string
		for i := 0; i < n; i++ {
			components = append(components, fmt.Sprintf("component-%d", i))
		}
		var steps int
		start := time.Now()
		for i := 0; i < iters; i++ {
			run, err := process.NewRun("layer", components)
			if err != nil {
				return nil, err
			}
			if err := run.RunAll(nil); err != nil {
				return nil, err
			}
			steps, _ = run.Progress()
		}
		elapsed := time.Since(start)
		perRun := float64(elapsed.Microseconds()) / float64(iters)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(steps),
			fmt.Sprintf("%.1f", perRun),
			fmt.Sprintf("%.2f", perRun/float64(steps)),
		})
	}
	return t, nil
}

// E6Stack exercises Fig. 5: metadata round-trips through the integrated
// technical stack — direct ORM, plus rules firing, plus ESB routing.
func E6Stack(quick bool) (*Table, error) {
	iters := 2000
	if quick {
		iters = 300
	}
	e := storage.MustOpenMemory()
	defer e.Close()
	type metaObj struct {
		ID   int64 `orm:"id,pk"`
		Name string
		Size int64
	}
	mapper, err := orm.NewMapper[metaObj](e, "meta_objs")
	if err != nil {
		return nil, err
	}

	// Rules engine validating each object.
	eng, err := rules.NewEngine(rules.Rule{
		Name: "oversize",
		When: []rules.Condition{{Var: "o", Kind: "Meta", Where: "o.size > 500"}},
		Then: func(s *rules.Session, b rules.Bindings) error {
			s.Assert("Flag", map[string]storage.Value{"id": b["o"].Get("id")})
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	// ESB channel wrapping the same persist operation.
	esb := bus.New()
	esb.Subscribe("meta.save", func(m *bus.Message) (*bus.Message, error) {
		obj := m.Body.(metaObj)
		if err := mapper.Save(&obj); err != nil {
			return nil, err
		}
		return bus.NewMessage("ok"), nil
	})

	t := &Table{
		ID:      "E6 (Fig. 5)",
		Title:   "integrated technical stack: ORM round-trips, + rules, + ESB",
		Headers: []string{"configuration", "iters", "total_ms", "us_per_op"},
		Claim:   "rules and bus indirection add overhead proportional to the work they do, not an order of magnitude",
	}
	configs := []struct {
		name string
		fn   func(i int) error
	}{
		{"orm only", func(i int) error {
			obj := metaObj{ID: int64(i), Name: "o", Size: int64(i % 1000)}
			if err := mapper.Save(&obj); err != nil {
				return err
			}
			_, _, err := mapper.Get(int64(i))
			return err
		}},
		{"orm + rules", func(i int) error {
			obj := metaObj{ID: int64(i), Name: "o", Size: int64(i % 1000)}
			if err := mapper.Save(&obj); err != nil {
				return err
			}
			s := eng.NewSession()
			s.Assert("Meta", map[string]storage.Value{"id": obj.ID, "size": obj.Size})
			_, err := s.FireAll(context.Background(), 0)
			return err
		}},
		{"orm via bus", func(i int) error {
			_, err := esb.Send("meta.save", bus.NewMessage(metaObj{ID: int64(i), Name: "o", Size: int64(i % 1000)}))
			return err
		}},
	}
	for _, cfg := range configs {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := cfg.fn(i); err != nil {
				return nil, fmt.Errorf("E6 %s: %w", cfg.name, err)
			}
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			cfg.name, fmt.Sprint(iters), ms(elapsed),
			fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/float64(iters)),
		})
	}
	return t, nil
}

// E8ETL exercises §3.1's Integration Service: CSV → transform → load
// throughput across input sizes.
func E8ETL(quick bool) (*Table, error) {
	sizes := []int{1000, 10000, 100000}
	if quick {
		sizes = []int{1000, 10000}
	}
	t := &Table{
		ID:      "E8 (§3.1 IS)",
		Title:   "ETL pipeline: CSV parse → filter → derive → load",
		Headers: []string{"rows", "total_ms", "rows_per_sec"},
		Claim:   "load throughput is roughly constant per row (linear scaling in input size)",
	}
	for _, n := range sizes {
		csvData := workload.Healthcare{Rows: n}.AdmissionsCSV()
		e := storage.MustOpenMemory()
		pipe := &etl.Pipeline{
			Source: &etl.CSVSource{Data: csvData},
			Transforms: []etl.Transform{
				etl.Filter{Condition: "cost IS NOT NULL"},
				etl.Derive{Field: "cost_per_day", Expression: "cost / stay_days"},
			},
			Sink: &etl.TableSink{Engine: e, Table: "admissions", CreateTable: true},
		}
		start := time.Now()
		_, written, err := pipe.Run(context.Background())
		if err != nil {
			e.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(written), ms(elapsed), opsPerSec(written, elapsed),
		})
		e.Close()
	}
	return t, nil
}

// E10Metadata exercises §3.1's MDS under concurrent readers/writers.
func E10Metadata(quick bool) (*Table, error) {
	writers := 4
	readers := 8
	opsPer := 200
	if quick {
		opsPer = 50
	}
	p, admin, err := newPlatform()
	if err != nil {
		return nil, err
	}
	sess, err := provisionTenant(p, admin, "mds")
	if err != nil {
		return nil, err
	}
	if _, err := sess.Query(context.Background(), "CREATE TABLE t (x INT)"); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E10 (§3.1 MDS)",
		Title:   "metadata service: concurrent data-set CRUD + lookups",
		Headers: []string{"workload", "goroutines", "ops", "total_ms", "ops_per_sec"},
		Claim:   "the shared metadata repository sustains concurrent service traffic",
	}
	// Concurrent writers creating + deleting data sets.
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				name := fmt.Sprintf("ds-%d-%d", w, i)
				if err := sess.CreateDataSet(context.Background(), name, "", "SELECT * FROM t", ""); err != nil {
					errs <- err
					return
				}
				if err := sess.DeleteDataSet(context.Background(), name); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if _, err := sess.DataSets(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	elapsed := time.Since(start)
	total := writers*opsPer*2 + readers*opsPer
	t.Rows = append(t.Rows, []string{
		"mixed crud+list", fmt.Sprint(writers + readers), fmt.Sprint(total),
		ms(elapsed), opsPerSec(total, elapsed),
	})
	return t, nil
}

// A1Index is the index ablation: selective DataSet predicates with and
// without index access paths.
func A1Index(quick bool) (*Table, error) {
	rows := 100000
	iters := 50
	if quick {
		rows = 10000
		iters = 10
	}
	e := storage.MustOpenMemory()
	defer e.Close()
	db := sql.NewDB(e)
	if _, err := db.QueryContext(context.Background(), "CREATE TABLE ev (id INT PRIMARY KEY, bucket INT, payload TEXT)"); err != nil {
		return nil, err
	}
	const batch = 5000
	for start := 0; start < rows; start += batch {
		err := e.Update(func(tx *storage.Tx) error {
			end := start + batch
			if end > rows {
				end = rows
			}
			for i := start; i < end; i++ {
				if _, err := tx.Insert("ev", storage.Row{int64(i), int64(i % 1000), "x"}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if _, err := db.QueryContext(context.Background(), "CREATE INDEX ev_bucket ON ev (bucket)"); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "A1 (ablation)",
		Title:   fmt.Sprintf("index vs scan: selective predicates over %d rows", rows),
		Headers: []string{"predicate", "access", "avg_ms", "speedup"},
		Claim:   "index probes beat scans by integer factors on selective predicates",
	}
	queries := []struct {
		name string
		q    string
	}{
		{"pk point (0.001%)", "SELECT payload FROM ev WHERE id = 4242"},
		{"bucket equality (0.1%)", "SELECT COUNT(*) FROM ev WHERE bucket = 7"},
		{"bucket range (~5%)", "SELECT COUNT(*) FROM ev WHERE bucket > 950"},
	}
	for _, q := range queries {
		var scanDur, indexDur time.Duration
		for _, disabled := range []bool{true, false} {
			db.DisableIndexes = disabled
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := db.QueryContext(context.Background(), q.q); err != nil {
					return nil, err
				}
			}
			d := time.Since(start) / time.Duration(iters)
			if disabled {
				scanDur = d
			} else {
				indexDur = d
			}
		}
		speed := float64(scanDur) / float64(indexDur)
		t.Rows = append(t.Rows,
			[]string{q.name, "scan", ms(scanDur), "1.00"},
			[]string{q.name, "index", ms(indexDur), fmt.Sprintf("%.2f", speed)},
		)
	}
	db.DisableIndexes = false
	return t, nil
}

// A2CubeCache is the cell-cache ablation: repeated drill paths with the
// cache on and off.
func A2CubeCache(quick bool) (*Table, error) {
	facts := 100000
	iters := 50
	if quick {
		facts = 10000
		iters = 10
	}
	e := storage.MustOpenMemory()
	defer e.Close()
	if _, err := (workload.Retail{Facts: facts, Products: 100, Stores: 20}).Load(e, nil); err != nil {
		return nil, err
	}
	cube, err := olap.Build(context.Background(), e, retailCubeSpec())
	if err != nil {
		return nil, err
	}
	drill := []olap.Query{
		{Rows: []olap.LevelRef{{Dimension: "Store", Level: "Region"}}, Measures: []string{"amount"}},
		{Rows: []olap.LevelRef{
			{Dimension: "Store", Level: "Region"}, {Dimension: "Product", Level: "Category"},
		}, Measures: []string{"amount"}},
		{Rows: []olap.LevelRef{
			{Dimension: "Store", Level: "Region"}, {Dimension: "Product", Level: "Category"},
			{Dimension: "Date", Level: "Year"},
		}, Measures: []string{"amount"}},
	}
	t := &Table{
		ID:      "A2 (ablation)",
		Title:   fmt.Sprintf("OLAP cell cache on repeated drill paths (%d facts)", facts),
		Headers: []string{"cache", "avg_ms_per_path", "speedup"},
		Claim:   "the cell cache turns repeated navigation into O(1) lookups",
	}
	var offDur, onDur time.Duration
	for _, cached := range []bool{false, true} {
		if cached {
			cube.SetCache(256)
		} else {
			cube.SetCache(0)
		}
		// Warm once (fills the cache in cached mode).
		for _, q := range drill {
			if _, err := cube.Execute(context.Background(), q); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			for _, q := range drill {
				if _, err := cube.Execute(context.Background(), q); err != nil {
					return nil, err
				}
			}
		}
		d := time.Since(start) / time.Duration(iters)
		if cached {
			onDur = d
		} else {
			offDur = d
		}
	}
	t.Rows = append(t.Rows,
		[]string{"off", ms(offDur), "1.00"},
		[]string{"on", ms(onDur), fmt.Sprintf("%.1f", float64(offDur)/float64(onDur))},
	)
	return t, nil
}

// A3Bus is the ESB-indirection ablation (it reuses E6's stack but
// isolates direct vs bus-routed calls at higher iteration counts).
func A3Bus(quick bool) (*Table, error) {
	iters := 20000
	if quick {
		iters = 2000
	}
	esb := bus.New()
	work := func(n int) int { return n*2 + 1 }
	esb.Subscribe("work", func(m *bus.Message) (*bus.Message, error) {
		return bus.NewMessage(work(m.Body.(int))), nil
	})
	t := &Table{
		ID:      "A3 (ablation)",
		Title:   "ESB indirection vs direct call",
		Headers: []string{"path", "iters", "ns_per_op", "overhead_x"},
		Claim:   "bus routing costs a small constant per message — cheap enough for service interop",
	}
	start := time.Now()
	sink := 0
	for i := 0; i < iters; i++ {
		sink += work(i)
	}
	direct := time.Since(start)
	start = time.Now()
	for i := 0; i < iters; i++ {
		reply, err := esb.Send("work", bus.NewMessage(i))
		if err != nil {
			return nil, err
		}
		sink += reply.Body.(int)
	}
	viaBus := time.Since(start)
	_ = sink
	directNs := float64(direct.Nanoseconds()) / float64(iters)
	busNs := float64(viaBus.Nanoseconds()) / float64(iters)
	if directNs <= 0 {
		directNs = 1
	}
	t.Rows = append(t.Rows,
		[]string{"direct", fmt.Sprint(iters), fmt.Sprintf("%.1f", directNs), "1.0"},
		[]string{"bus", fmt.Sprint(iters), fmt.Sprintf("%.1f", busNs), fmt.Sprintf("%.0f", busNs/directNs)},
	)
	return t, nil
}

// A4WAL is the durability ablation: insert throughput under the three
// WAL sync modes.
func A4WAL(quick bool, dir string) (*Table, error) {
	rows := 20000
	if quick {
		rows = 4000
	}
	t := &Table{
		ID:      "A4 (ablation)",
		Title:   "WAL durability modes: insert-heavy load",
		Headers: []string{"sync_mode", "rows", "total_ms", "rows_per_sec"},
		Claim:   "fsync-per-commit costs an order of magnitude on small commits; buffered mode is the SaaS default",
	}
	modes := []struct {
		name string
		mode storage.SyncMode
	}{
		{"none", storage.SyncNone},
		{"buffered", storage.SyncBuffered},
		{"full (fsync)", storage.SyncFull},
	}
	for _, m := range modes {
		subdir := fmt.Sprintf("%s/wal-%s", dir, m.name[:4])
		e, err := storage.Open(storage.Options{Dir: subdir, Sync: m.mode})
		if err != nil {
			return nil, err
		}
		schema, _ := storage.NewSchema("ev", []storage.Column{
			{Name: "id", Type: storage.TypeInt},
			{Name: "payload", Type: storage.TypeString},
		})
		if err := e.CreateTable(schema); err != nil {
			e.Close()
			return nil, err
		}
		n := rows
		if m.mode == storage.SyncFull {
			n = rows / 20 // fsync per commit: keep runtime bounded
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			err := e.Update(func(tx *storage.Tx) error {
				_, err := tx.Insert("ev", storage.Row{int64(i), "payload"})
				return err
			})
			if err != nil {
				e.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			m.name, fmt.Sprint(n), ms(elapsed), opsPerSec(n, elapsed),
		})
		e.Close()
	}
	return t, nil
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID  string
	Run func(quick bool) (*Table, error)
}

// All returns every experiment in DESIGN.md order. tmpDir hosts the
// durable files A4 needs.
func All(tmpDir string) []Experiment {
	return []Experiment{
		{"E1", E1EndToEnd},
		{"E2", E2MultiTenant},
		{"E3", E3MDAPipeline},
		{"E4", E4Process},
		{"E5", E5Layers},
		{"E6", E6Stack},
		{"E7", E7Dashboard},
		{"E8", E8ETL},
		{"E9", E9OLAP},
		{"E10", E10Metadata},
		{"A1", A1Index},
		{"A2", A2CubeCache},
		{"A3", A3Bus},
		{"A4", func(quick bool) (*Table, error) { return A4WAL(quick, tmpDir) }},
	}
}
