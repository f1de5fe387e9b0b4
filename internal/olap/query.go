package olap

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/storage"
)

// LevelRef names a (dimension, level) pair used as a query axis.
type LevelRef struct {
	Dimension string
	Level     string
}

// String renders "Dimension.Level".
func (r LevelRef) String() string { return r.Dimension + "." + r.Level }

// Filter restricts a query to facts whose (dimension, level) member is in
// Members.
type Filter struct {
	Dimension string
	Level     string
	Members   []storage.Value
}

// Query describes one aggregation over a cube: row axes × column axes ×
// measures, restricted by filters. The zero value aggregates the whole
// cube into a single cell per measure.
type Query struct {
	Rows     []LevelRef
	Cols     []LevelRef
	Measures []string // empty means all cube measures
	Filters  []Filter
}

// --- navigation operations (each returns a derived query) ---

// Slice fixes one level to a single member (classic OLAP slice).
func (q Query) Slice(dim, lvl string, member storage.Value) Query {
	return q.Dice(dim, lvl, member)
}

// Dice restricts one level to a member set.
func (q Query) Dice(dim, lvl string, members ...storage.Value) Query {
	nq := q.clone()
	nq.Filters = append(nq.Filters, Filter{Dimension: dim, Level: lvl, Members: members})
	return nq
}

// DrillDown appends a finer level to the row axes.
func (q Query) DrillDown(dim, lvl string) Query {
	nq := q.clone()
	nq.Rows = append(nq.Rows, LevelRef{Dimension: dim, Level: lvl})
	return nq
}

// RollUp removes the finest row axis of the given dimension.
func (q Query) RollUp(dim string) Query {
	nq := q.clone()
	for i := len(nq.Rows) - 1; i >= 0; i-- {
		if strings.EqualFold(nq.Rows[i].Dimension, dim) {
			nq.Rows = append(nq.Rows[:i], nq.Rows[i+1:]...)
			break
		}
	}
	return nq
}

// Pivot swaps the row and column axes.
func (q Query) Pivot() Query {
	nq := q.clone()
	nq.Rows, nq.Cols = nq.Cols, nq.Rows
	return nq
}

func (q Query) clone() Query {
	return Query{
		Rows:     append([]LevelRef(nil), q.Rows...),
		Cols:     append([]LevelRef(nil), q.Cols...),
		Measures: append([]string(nil), q.Measures...),
		Filters:  append([]Filter(nil), q.Filters...),
	}
}

// key builds a canonical cache key for the query.
func (q Query) key() string {
	var sb strings.Builder
	var kbuf []byte
	writeRefs := func(tag string, refs []LevelRef) {
		sb.WriteString(tag)
		for _, r := range refs {
			sb.WriteString(strings.ToLower(r.Dimension))
			sb.WriteByte('.')
			sb.WriteString(strings.ToLower(r.Level))
			sb.WriteByte(';')
		}
	}
	writeRefs("R:", q.Rows)
	writeRefs("C:", q.Cols)
	sb.WriteString("M:")
	for _, m := range q.Measures {
		sb.WriteString(strings.ToLower(m))
		sb.WriteByte(';')
	}
	sb.WriteString("F:")
	filters := append([]Filter(nil), q.Filters...)
	sort.Slice(filters, func(i, j int) bool {
		a := strings.ToLower(filters[i].Dimension + "." + filters[i].Level)
		b := strings.ToLower(filters[j].Dimension + "." + filters[j].Level)
		return a < b
	})
	for _, f := range filters {
		sb.WriteString(strings.ToLower(f.Dimension))
		sb.WriteByte('.')
		sb.WriteString(strings.ToLower(f.Level))
		sb.WriteByte('=')
		mvals := append([]storage.Value(nil), f.Members...)
		sort.Slice(mvals, func(i, j int) bool { return storage.Compare(mvals[i], mvals[j]) < 0 })
		kbuf = storage.AppendKey(kbuf[:0], mvals...)
		sb.Write(kbuf)
		sb.WriteByte(';')
	}
	return sb.String()
}

// Tuple is one member combination along an axis.
type Tuple []storage.Value

// Result is the outcome of a cube query: a grid of cells indexed by row
// and column header tuples, with one value per measure per cell.
type Result struct {
	Measures   []string
	RowAxes    []LevelRef
	ColAxes    []LevelRef
	RowHeaders []Tuple
	ColHeaders []Tuple
	// Cells[r][c][m] is the m-th measure at row r, column c. NaN-free:
	// empty cells hold 0 with Present[r][c] false.
	Cells   [][][]float64
	Present [][]bool
	// FromCache reports whether the result was served by the cell cache.
	FromCache bool
}

// Execute runs a query against the cube. ctx bounds the fact loop: a
// cancelled or expired context aborts the aggregation mid-row, and the
// partial result is never cached (the put only happens on success).
func (c *Cube) Execute(ctx context.Context, q Query) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "olap.query")
	defer span.End()
	mOLAPQueries.Inc()
	obs.AddTenant(ctx, obs.TenantQueries, 1)
	measures := q.Measures
	if len(measures) == 0 {
		measures = c.MeasureNames()
	}
	meass := make([]*measure, 0, len(measures))
	for _, name := range measures {
		m, ok := c.meas[strings.ToLower(name)]
		if !ok {
			return nil, fmt.Errorf("olap: cube %s has no measure %q", c.spec.Name, name)
		}
		meass = append(meass, m)
	}
	rowLevels, err := c.resolveRefs(q.Rows)
	if err != nil {
		return nil, err
	}
	colLevels, err := c.resolveRefs(q.Cols)
	if err != nil {
		return nil, err
	}

	// Cache probe.
	key := ""
	if c.cache != nil {
		nq := q
		nq.Measures = measures
		key = nq.key()
		if res, ok := c.cache.get(c.version, key); ok {
			out := *res
			out.FromCache = true
			return &out, nil
		}
	}

	// Precompute filter bitmaps (allowed code sets per filtered level).
	type filterSet struct {
		lv      *level
		allowed map[int32]bool
	}
	fsets := make([]filterSet, 0, len(q.Filters))
	var kbuf []byte
	for _, f := range q.Filters {
		d, err := c.dimension(f.Dimension)
		if err != nil {
			return nil, err
		}
		lv, _, err := d.level(f.Level)
		if err != nil {
			return nil, err
		}
		allowed := make(map[int32]bool, len(f.Members))
		for _, m := range f.Members {
			kbuf = storage.AppendKey(kbuf[:0], m)
			if code, ok := lv.index[string(kbuf)]; ok {
				allowed[code] = true
			}
		}
		fsets = append(fsets, filterSet{lv: lv, allowed: allowed})
	}

	type cellState struct {
		sums   []float64
		counts []int64
		mins   []float64
		maxs   []float64
	}
	newState := func() *cellState {
		st := &cellState{
			sums:   make([]float64, len(meass)),
			counts: make([]int64, len(meass)),
			mins:   make([]float64, len(meass)),
			maxs:   make([]float64, len(meass)),
		}
		return st
	}

	// A struct key instead of rk+"|"+ck: the aggregation loop runs once
	// per fact, and composite string keys would allocate on each pass.
	type cellPos struct{ row, col string }
	cells := map[cellPos]*cellState{}
	rowKeys := map[string][]int32{}
	colKeys := map[string][]int32{}

	rowCodes := make([]int32, len(rowLevels))
	colCodes := make([]int32, len(colLevels))
facts:
	for i := 0; i < c.rows; i++ {
		if ctx != nil && i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, fs := range fsets {
			if !fs.allowed[fs.lv.codes[i]] {
				continue facts
			}
		}
		for j, lv := range rowLevels {
			rowCodes[j] = lv.codes[i]
		}
		for j, lv := range colLevels {
			colCodes[j] = lv.codes[i]
		}
		rk := codesKey(rowCodes)
		ck := codesKey(colCodes)
		if _, ok := rowKeys[rk]; !ok {
			rowKeys[rk] = append([]int32(nil), rowCodes...)
		}
		if _, ok := colKeys[ck]; !ok {
			colKeys[ck] = append([]int32(nil), colCodes...)
		}
		pos := cellPos{rk, ck}
		st, ok := cells[pos]
		if !ok {
			st = newState()
			cells[pos] = st
		}
		for mi, m := range meass {
			if m.isNull[i] {
				continue
			}
			v := m.vals[i]
			if st.counts[mi] == 0 {
				st.mins[mi], st.maxs[mi] = v, v
			} else {
				if v < st.mins[mi] {
					st.mins[mi] = v
				}
				if v > st.maxs[mi] {
					st.maxs[mi] = v
				}
			}
			st.counts[mi]++
			st.sums[mi] += v
		}
	}

	res := &Result{
		Measures: measures,
		RowAxes:  append([]LevelRef(nil), q.Rows...),
		ColAxes:  append([]LevelRef(nil), q.Cols...),
	}
	res.RowHeaders, res.ColHeaders = headerTuples(rowLevels, rowKeys), headerTuples(colLevels, colKeys)
	rowPos := tuplePositions(rowLevels, res.RowHeaders)
	colPos := tuplePositions(colLevels, res.ColHeaders)

	res.Cells = make([][][]float64, len(res.RowHeaders))
	res.Present = make([][]bool, len(res.RowHeaders))
	for r := range res.Cells {
		res.Cells[r] = make([][]float64, len(res.ColHeaders))
		res.Present[r] = make([]bool, len(res.ColHeaders))
		for cc := range res.Cells[r] {
			res.Cells[r][cc] = make([]float64, len(meass))
		}
	}
	for pos, st := range cells {
		r := rowPos[pos.row]
		cc := colPos[pos.col]
		res.Present[r][cc] = true
		for mi, m := range meass {
			var v float64
			switch m.spec.Agg {
			case AggSum:
				v = st.sums[mi]
			case AggAvg:
				if st.counts[mi] > 0 {
					v = st.sums[mi] / float64(st.counts[mi])
				}
			case AggMin:
				v = st.mins[mi]
			case AggMax:
				v = st.maxs[mi]
			case AggCount:
				v = float64(st.counts[mi])
			}
			res.Cells[r][cc][mi] = v
		}
	}

	if c.cache != nil {
		c.cache.put(c.version, key, res)
	}
	return res, nil
}

func (c *Cube) resolveRefs(refs []LevelRef) ([]*level, error) {
	out := make([]*level, len(refs))
	for i, r := range refs {
		d, err := c.dimension(r.Dimension)
		if err != nil {
			return nil, err
		}
		lv, _, err := d.level(r.Level)
		if err != nil {
			return nil, err
		}
		out[i] = lv
	}
	return out, nil
}

func codesKey(codes []int32) string {
	var sb strings.Builder
	for _, c := range codes {
		fmt.Fprintf(&sb, "%d,", c)
	}
	return sb.String()
}

// headerTuples decodes the distinct axis keys into sorted member tuples.
func headerTuples(levels []*level, keys map[string][]int32) []Tuple {
	tuples := make([]Tuple, 0, len(keys))
	for _, codes := range keys {
		t := make(Tuple, len(levels))
		for i, lv := range levels {
			t[i] = lv.dict[codes[i]]
		}
		tuples = append(tuples, t)
	}
	sort.Slice(tuples, func(i, j int) bool {
		for k := range tuples[i] {
			c := storage.Compare(tuples[i][k], tuples[j][k])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return tuples
}

// tuplePositions maps each axis key back to its sorted header position.
func tuplePositions(levels []*level, headers []Tuple) map[string]int {
	pos := make(map[string]int, len(headers))
	codes := make([]int32, len(levels))
	var kbuf []byte
	for i, t := range headers {
		for j, lv := range levels {
			kbuf = storage.AppendKey(kbuf[:0], t[j])
			codes[j] = lv.index[string(kbuf)]
		}
		pos[codesKey(codes)] = i
	}
	return pos
}

// Cell returns the measure values at (rowTuple, colTuple); ok reports
// whether the cell has data.
func (r *Result) Cell(row, col int) ([]float64, bool) {
	if row < 0 || row >= len(r.Cells) || col < 0 || col >= len(r.Cells[row]) {
		return nil, false
	}
	return r.Cells[row][col], r.Present[row][col]
}

// Grand computes the total of one measure over all cells (meaningful for
// sum/count measures).
func (r *Result) Grand(measureIdx int) float64 {
	total := 0.0
	for i := range r.Cells {
		for j := range r.Cells[i] {
			if r.Present[i][j] {
				total += r.Cells[i][j][measureIdx]
			}
		}
	}
	return total
}

// String renders the result as a fixed-width pivot table (first measure
// only), for CLI display and tests.
func (r *Result) String() string {
	var sb strings.Builder
	header := make([]string, 0, len(r.ColHeaders)+1)
	var axisNames []string
	for _, a := range r.RowAxes {
		axisNames = append(axisNames, a.String())
	}
	header = append(header, strings.Join(axisNames, "/"))
	for _, ct := range r.ColHeaders {
		header = append(header, tupleString(ct))
	}
	rows := [][]string{header}
	for i, rt := range r.RowHeaders {
		line := []string{tupleString(rt)}
		for j := range r.ColHeaders {
			if r.Present[i][j] {
				line = append(line, formatCell(r.Cells[i][j][0]))
			} else {
				line = append(line, "-")
			}
		}
		rows = append(rows, line)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// formatCell prints an aggregated value without floating-point noise:
// two decimals, trailing zeros trimmed.
func formatCell(v float64) string {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

func tupleString(t Tuple) string {
	if len(t) == 0 {
		return "(all)"
	}
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = storage.FormatValue(v)
	}
	return strings.Join(parts, "/")
}

// cellCache is a bounded memoization of query results keyed by cube
// version + canonical query key (DESIGN.md ablation A2).
type cellCache struct {
	mu    sync.Mutex
	size  int
	items map[string]*Result
	order []string
	hits  int
	miss  int
}

func newCellCache(size int) *cellCache {
	return &cellCache{size: size, items: make(map[string]*Result)}
}

func (cc *cellCache) fullKey(version int, key string) string {
	return fmt.Sprintf("v%d|%s", version, key)
}

func (cc *cellCache) get(version int, key string) (*Result, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	res, ok := cc.items[cc.fullKey(version, key)]
	if ok {
		cc.hits++
		mOLAPCacheHits.Inc()
	} else {
		cc.miss++
		mOLAPCacheMiss.Inc()
	}
	return res, ok
}

func (cc *cellCache) put(version int, key string, res *Result) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	fk := cc.fullKey(version, key)
	if _, exists := cc.items[fk]; exists {
		return
	}
	if len(cc.order) >= cc.size {
		oldest := cc.order[0]
		cc.order = cc.order[1:]
		delete(cc.items, oldest)
	}
	cc.items[fk] = res
	cc.order = append(cc.order, fk)
}

// CacheStats reports cache hits and misses since the cube was built.
func (c *Cube) CacheStats() (hits, misses int) {
	if c.cache == nil {
		return 0, 0
	}
	c.cache.mu.Lock()
	defer c.cache.mu.Unlock()
	return c.cache.hits, c.cache.miss
}
