package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/odbis/odbis"
	"github.com/odbis/odbis/internal/storage"
)

const (
	// numClients is the closed-loop client count: BI clients wait for
	// each reply, and the reference box has two cores.
	numClients = 2
	// warmShare of the timed op count is run first and discarded, so the
	// pools are dialled and the plan and cube caches filled.
	warmShare = 0.05
	// maxBlocks and minBlock shape the p99 estimator: a phase's samples
	// are cut into up to maxBlocks consecutive blocks of at least
	// minBlock samples, and the reported p99 is the lower quartile of
	// the per-block values: the tail in the quieter parts of the run.
	// The sandbox's neighbours only ever lengthen a tail, in bursts; on
	// the same ten runs this spread a third less than the median of
	// the blocks.
	maxBlocks = 20
	minBlock  = 200
)

// scale sizes one run. The reference scale is BENCHMARK.json's; quick
// shrinks everything for the smoke test and is not comparable.
type scale struct {
	// share multiplies every workload's frozen op count.
	share float64
	// rowCap caps the base table's rows (0 = the workload's own).
	rowCap int
	// setups is how many times set-up runs; setup_s is their median and
	// the last platform is the one measured.
	setups int
	// dir holds on-disk DataDirs; each is removed after use.
	dir string
}

// phaseResult is the raw outcome of one closed-loop phase.
type phaseResult struct {
	// lat[c] holds client c's latencies in issue order; writes[c][i]
	// marks sample i as an insert.
	lat      [][]time.Duration
	writes   [][]bool
	failed   int
	firstErr error
	wall     time.Duration
	// acked are the inserted rows the platform acknowledged.
	acked []salesRow
	// returned is the rows (or cells) the replies carried in total.
	returned int
}

// closedLoop runs each client's stream to its op count: a client sends
// its next operation when the previous reply has been read and checked.
func (e *env) closedLoop(ctx context.Context, w *workload, streams []*stream, perClient int) phaseResult {
	res := phaseResult{
		lat:    make([][]time.Duration, len(streams)),
		writes: make([][]bool, len(streams)),
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	start := time.Now()
	for c, s := range streams {
		wg.Add(1)
		go func(c int, s *stream) {
			defer wg.Done()
			lat := make([]time.Duration, 0, perClient)
			writes := make([]bool, 0, perClient)
			var acked []salesRow
			var failed, returned int
			var firstErr error
			for i := 0; i < perClient; i++ {
				o := s.next()
				t0 := time.Now()
				r, err := e.send(ctx, w, o)
				lat = append(lat, time.Since(t0))
				writes = append(writes, o.write())
				if err == nil {
					err = e.check(w, o, r)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("%s client %d op %d (%s): %w", w.name, c, i, o.sql, err)
					}
					continue
				}
				returned += r.returned()
				if o.write() {
					acked = append(acked, o.row)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.lat[c], res.writes[c] = lat, writes
			res.failed += failed
			res.returned += returned
			res.acked = append(res.acked, acked...)
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
		}(c, s)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// pick returns each client's samples of one class, in issue order.
func (p phaseResult) pick(write bool) [][]time.Duration {
	out := make([][]time.Duration, len(p.lat))
	for c := range p.lat {
		for i, d := range p.lat[c] {
			if p.writes[c][i] == write {
				out[c] = append(out[c], d)
			}
		}
	}
	return out
}

func samples(perClient [][]time.Duration) int {
	n := 0
	for _, s := range perClient {
		n += len(s)
	}
	return n
}

// medianDuration is the median by nearest rank; it sorts d in place.
func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[(len(d)-1)/2]
}

// percentiles reports, in milliseconds, the median of all samples and
// the lower quartile over consecutive blocks of each block's 99th
// percentile (nearest rank), with the sample count. A median is already
// immune to a stall; a tail percentile is not, hence the blocks.
func percentiles(perClient [][]time.Duration) (p50, p99 float64, n int) {
	var all []time.Duration
	for _, s := range perClient {
		all = append(all, s...)
	}
	n = len(all)
	if n == 0 {
		return 0, 0, 0
	}
	blocks := min(maxBlocks, max(1, n/minBlock))
	var b99 []float64
	for b := 0; b < blocks; b++ {
		var block []time.Duration
		for _, s := range perClient {
			block = append(block, s[len(s)*b/blocks:len(s)*(b+1)/blocks]...)
		}
		if len(block) == 0 {
			continue
		}
		sort.Slice(block, func(i, j int) bool { return block[i] < block[j] })
		b99 = append(b99, ms(block[(len(block)-1)*99/100]))
	}
	sort.Float64s(b99)
	return ms(medianDuration(all)), b99[(len(b99)-1)/4], n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a latency percentile.
	N int `json:"n,omitempty"`
}

// runResult is one workload's end-to-end outcome.
type runResult struct {
	Workload  string            `json:"workload"`
	Ops       int               `json:"ops"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// session is one booted, loaded and warmed platform ready to measure.
type session struct {
	env     *env
	stopped bool
	dataDir string
	warm    phaseResult
	rows    int   // per tenant, as loaded
	nextID  int64 // first insert id the timed phase may use
}

// setUp boots a platform for w, loads the generated data through the
// front door and runs the warm-up: everything setup_s covers.
func setUp(ctx context.Context, open opener, w *workload, seed int64, sc scale, data []*dataset, timedOps int) (*session, error) {
	s := &session{rows: len(data[0].rows)}
	if w.onDisk {
		if err := os.MkdirAll(sc.dir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(sc.dir, "datadir-")
		if err != nil {
			return nil, err
		}
		s.dataDir = dir
	}
	e, err := boot(ctx, open, s.dataDir, w.tenants)
	if err != nil {
		s.removeDir()
		return nil, err
	}
	s.env = e
	for i, t := range e.tenants {
		t.data = data[i]
	}
	if err := e.prepare(ctx, w); err != nil {
		s.close()
		return nil, err
	}
	warmPerClient := max(1, int(warmShare*float64(timedOps))/numClients)
	firstID := int64(s.rows + 1)
	s.warm = e.closedLoop(ctx, w, streams(w, seed, "warm", s.rows, firstID), warmPerClient)
	s.nextID = firstID + int64(warmPerClient*numClients)
	if s.warm.firstErr != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", s.warm.firstErr)
	}
	return s, nil
}

func streams(w *workload, seed int64, phase string, rows int, firstID int64) []*stream {
	out := make([]*stream, numClients)
	for c := range out {
		out[c] = newStream(w, seed, phase, c, numClients, rows, firstID)
	}
	return out
}

func (s *session) removeDir() {
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// stop closes the platform once; a durable one checkpoints here.
func (s *session) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	return s.env.close()
}

// close stops the platform and removes its DataDir.
func (s *session) close() error {
	err := s.stop()
	s.removeDir()
	return err
}

// generate builds every tenant's dataset for w at this scale.
func generate(w *workload, seed int64, sc scale) []*dataset {
	rows := w.rows
	if sc.rowCap > 0 {
		rows = min(rows, sc.rowCap)
	}
	data := make([]*dataset, w.tenants)
	for i := range data {
		data[i] = newDataset(seed, i, rows)
		data[i].freeze(w.queries)
	}
	return data
}

func (w *workload) timedOps(sc scale) int {
	n := int(float64(w.ops) * sc.share)
	return max(numClients, n-n%numClients)
}

// run measures one workload end to end: sc.setups set-ups (the median
// is setup_s), one timed closed-loop phase on the last platform, then
// the final-state checks.
func run(ctx context.Context, w *workload, seed int64, sc scale) runResult {
	res := runResult{Workload: w.name, Metrics: map[string]metric{}}
	fail := func(err error) runResult {
		res.Error = err.Error()
		res.Correct = false
		res.Attempted = max(res.Attempted, 1)
		res.Failed = max(res.Failed, 1)
		return res
	}
	ops := w.timedOps(sc)
	res.Ops = ops
	data := generate(w, seed, sc)

	var s *session
	var setupTimes []float64
	for i := 0; i < max(1, sc.setups); i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return fail(err)
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setUp(ctx, openPlatform, w, seed, sc, data, ops); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	res.Metrics["setup_s"] = metric{Value: median(setupTimes), Unit: "s", N: len(setupTimes)}

	runtime.GC()
	timed := s.env.closedLoop(ctx, w, streams(w, seed, "timed", s.rows, s.nextID), ops/numClients)
	res.Attempted = ops
	res.Failed = timed.failed

	// When a phase mixed reads and writes, p50_ms and p99_ms are the
	// reads and write_p50_ms the writes. A workload with one op stream
	// has no separate write latency; write_p50_ms then repeats p50_ms so
	// that it is defined on every workload.
	primary := timed.lat
	reads, writes := timed.pick(false), timed.pick(true)
	mixed := samples(reads) > 0 && samples(writes) > 0
	if mixed {
		primary = reads
	}
	p50, p99, n := percentiles(primary)
	wp50, nWrites := p50, n
	if mixed {
		wp50, _, nWrites = percentiles(writes)
	}
	res.Metrics["p50_ms"] = metric{Value: p50, Unit: "ms", N: n}
	res.Metrics["p99_ms"] = metric{Value: p99, Unit: "ms", N: n}
	res.Metrics["ops_per_s"] = metric{Value: float64(ops) / timed.wall.Seconds(), Unit: "ops/s", N: ops}
	res.Metrics["write_p50_ms"] = metric{Value: wp50, Unit: "ms", N: nWrites}
	res.Metrics["fail_share"] = metric{Value: float64(timed.failed) / float64(ops), Unit: "ratio", N: ops}

	err := timed.firstErr
	if err == nil && w.mutable {
		acked := append(append([]salesRow(nil), s.warm.acked...), timed.acked...)
		err = s.checkFinalState(ctx, w, data[0], acked, &res)
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	res.Correct = res.Failed == 0
	return res
}

// checkFinalState verifies a grown table: COUNT(*) is loaded plus
// acknowledged rows and every aggregate equals the generator's fold
// over exactly those rows. For the on-disk workload it then closes the
// platform, measures the DataDir, reopens it and counts again.
func (s *session) checkFinalState(ctx context.Context, w *workload, d *dataset, acked []salesRow, res *runResult) error {
	final := &dataset{rows: append([]salesRow(nil), d.rows...), bytes: d.bytes}
	// The engine scans in insertion order, which for concurrent clients
	// is not id order; float sums then differ in the last bits only,
	// inside sameRows' tolerance.
	sort.Slice(acked, func(i, j int) bool { return acked[i].id < acked[j].id })
	for _, r := range acked {
		final.add(r)
	}
	t := s.env.tenants[0]
	queries := append([]aggQuery{{aggs: []string{"count", "sum_amount"}}}, w.queries...)
	for _, q := range queries {
		rows, _, err := t.binQuery(ctx, q.sql(), thresholdArgs(q))
		if err == nil {
			err = sameRows(rows, final.fold(q, 0), false)
		}
		if err != nil {
			return fmt.Errorf("final state, %s: %w", q.sql(), err)
		}
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
	res.Metrics["disk_bytes_per_user_byte"] = metric{Value: float64(disk) / float64(final.bytes), Unit: "ratio", N: len(final.rows)}
	reopened, err := recount(ctx, s.dataDir)
	if err != nil {
		return fmt.Errorf("reopen %s: %w", s.dataDir, err)
	}
	if reopened != len(final.rows) {
		return fmt.Errorf("after reopen COUNT(*) = %d, want %d loaded+acknowledged", reopened, len(final.rows))
	}
	return nil
}

// thresholdArgs binds threshold 0 to a filtered aggregate.
func thresholdArgs(q aggQuery) []storage.Value {
	if q.filtered {
		return []storage.Value{int64(0)}
	}
	return nil
}

// recount reopens a DataDir and counts the tenant's rows.
func recount(ctx context.Context, dir string) (int, error) {
	p, err := odbis.Open(odbis.Options{DataDir: dir, AdminUser: adminUser, AdminPassword: adminPass})
	if err != nil {
		return 0, err
	}
	defer p.Close()
	sess, _, err := p.Login(tenantName(0)+"-designer", userPass)
	if err != nil {
		return 0, err
	}
	res, err := sess.Query(ctx, countSQL)
	if err != nil {
		return 0, err
	}
	n, _ := number(res.Rows[0][0])
	return int(n), nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
