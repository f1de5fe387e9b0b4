// Package olap is the multidimensional analysis substrate behind the
// ODBIS Analysis Service (AS) — "definition of analysis data models (OLAP
// data cube), data cube visualization and navigation" (§3.1). It stands
// in for a Mondrian-class analysis server.
//
// A Cube is built from a star schema in the storage engine: a fact table
// whose foreign keys point at dimension tables. The build step
// dictionary-encodes every dimension level into dense integer codes, so
// queries aggregate over compact arrays. Queries support slice, dice,
// drill-down, roll-up and pivot, with an optional cell cache memoizing
// aggregated blocks.
package olap

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/storage"
)

// Agg identifies a measure aggregation.
type Agg string

// Supported aggregations.
const (
	AggSum   Agg = "sum"
	AggAvg   Agg = "avg"
	AggMin   Agg = "min"
	AggMax   Agg = "max"
	AggCount Agg = "count"
)

// cubeBatchRows is the batch size for the build-time table scans.
const cubeBatchRows = 256

// ParseAgg validates an aggregation name.
func ParseAgg(s string) (Agg, error) {
	switch Agg(strings.ToLower(s)) {
	case AggSum:
		return AggSum, nil
	case AggAvg:
		return AggAvg, nil
	case AggMin:
		return AggMin, nil
	case AggMax:
		return AggMax, nil
	case AggCount:
		return AggCount, nil
	}
	return "", fmt.Errorf("olap: unknown aggregation %q", s)
}

// MeasureSpec declares one measure of a cube.
type MeasureSpec struct {
	Name string
	// Column is the fact-table column holding the measure value (ignored
	// for count).
	Column string
	Agg    Agg
}

// LevelSpec declares one level of a dimension hierarchy, coarse→fine.
type LevelSpec struct {
	Name string
	// Column is the dimension-table column holding the level member.
	Column string
}

// DimensionSpec declares one dimension of a cube.
type DimensionSpec struct {
	Name string
	// Table is the dimension table; empty for a degenerate dimension whose
	// levels live directly on the fact table.
	Table string
	// Key is the dimension table's key column joined from the fact table.
	Key string
	// FactFK is the fact-table foreign-key column.
	FactFK string
	// Levels are ordered coarse→fine.
	Levels []LevelSpec
}

// CubeSpec declares a cube over a star schema.
type CubeSpec struct {
	Name       string
	FactTable  string
	Measures   []MeasureSpec
	Dimensions []DimensionSpec
}

// Validate checks structural well-formedness (table existence is checked
// at build time).
func (s *CubeSpec) Validate() error {
	if s.Name == "" || s.FactTable == "" {
		return fmt.Errorf("olap: cube needs a name and a fact table")
	}
	if len(s.Measures) == 0 {
		return fmt.Errorf("olap: cube %s has no measures", s.Name)
	}
	seen := map[string]bool{}
	for _, m := range s.Measures {
		if m.Name == "" {
			return fmt.Errorf("olap: cube %s: unnamed measure", s.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("olap: cube %s: duplicate measure %q", s.Name, m.Name)
		}
		seen[m.Name] = true
		if _, err := ParseAgg(string(m.Agg)); err != nil {
			return err
		}
		if m.Agg != AggCount && m.Column == "" {
			return fmt.Errorf("olap: cube %s: measure %q needs a column", s.Name, m.Name)
		}
	}
	dseen := map[string]bool{}
	for _, d := range s.Dimensions {
		if d.Name == "" {
			return fmt.Errorf("olap: cube %s: unnamed dimension", s.Name)
		}
		if dseen[d.Name] {
			return fmt.Errorf("olap: cube %s: duplicate dimension %q", s.Name, d.Name)
		}
		dseen[d.Name] = true
		if len(d.Levels) == 0 {
			return fmt.Errorf("olap: cube %s: dimension %q has no levels", s.Name, d.Name)
		}
		if d.Table != "" && (d.Key == "" || d.FactFK == "") {
			return fmt.Errorf("olap: cube %s: dimension %q needs Key and FactFK", s.Name, d.Name)
		}
	}
	return nil
}

// level is the materialized, dictionary-encoded form of one level.
type level struct {
	spec  LevelSpec
	codes []int32         // one code per fact row
	dict  []storage.Value // code → member value
	index map[string]int32
}

type dimension struct {
	spec   DimensionSpec
	levels []*level
}

type measure struct {
	spec   MeasureSpec
	vals   []float64 // one value per fact row
	isNull []bool
}

// Cube is a built, queryable hypercube.
type Cube struct {
	spec    CubeSpec
	rows    int
	dims    map[string]*dimension
	dimList []*dimension
	meas    map[string]*measure
	cache   *cellCache
	version int
}

// Name returns the cube name.
func (c *Cube) Name() string { return c.spec.Name }

// Rows reports the number of fact rows in the cube.
func (c *Cube) Rows() int { return c.rows }

// Spec returns the cube's specification.
func (c *Cube) Spec() CubeSpec { return c.spec }

// SetCache enables (size > 0) or disables the cell cache. The default
// cube has a 256-entry cache.
func (c *Cube) SetCache(size int) {
	if size <= 0 {
		c.cache = nil
		return
	}
	c.cache = newCellCache(size)
}

// Build materializes a cube from the star schema in the engine. Every
// fact row is joined to its dimension rows once; level members are
// dictionary-encoded. ctx bounds the build: the dimension and fact scans
// stop at the next row checkpoint once ctx is cancelled, and the partial
// cube is discarded.
func Build(ctx context.Context, e *storage.Engine, spec CubeSpec) (*Cube, error) {
	ctx, span := obs.StartSpan(ctx, "olap.build")
	defer span.End()
	start := time.Now()
	defer func() { mOLAPBuildSecs.ObserveDuration(time.Since(start)) }()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	factSchema, err := e.Schema(spec.FactTable)
	if err != nil {
		return nil, err
	}
	factCol := func(name string) (int, error) {
		pos, ok := factSchema.ColumnIndex(name)
		if !ok {
			return 0, fmt.Errorf("olap: fact table %s has no column %q", spec.FactTable, name)
		}
		return pos, nil
	}

	// Load dimension tables into key → level-values maps.
	type dimData struct {
		spec      DimensionSpec
		fkPos     int   // fact column position
		levelPos  []int // positions within dim table (or fact for degenerate)
		byKey     map[string][]storage.Value
		degenPos  []int // for degenerate dims: level positions on the fact table
		degenerte bool
		// rowVals holds one fact row's level values (degenerate dims);
		// nulls is the all-NULL levels of an unmatched or NULL FK. Both
		// are reused across rows: encode copies out what it keeps.
		rowVals, nulls []storage.Value
	}
	var kbuf []byte // reused key buffer: probes make no key string
	dimDatas := make([]*dimData, 0, len(spec.Dimensions))
	for _, ds := range spec.Dimensions {
		dd := &dimData{spec: ds}
		if ds.Table == "" {
			dd.degenerte = true
			for _, ls := range ds.Levels {
				pos, err := factCol(ls.Column)
				if err != nil {
					return nil, err
				}
				dd.degenPos = append(dd.degenPos, pos)
			}
		} else {
			fkPos, err := factCol(ds.FactFK)
			if err != nil {
				return nil, err
			}
			dd.fkPos = fkPos
			dimSchema, err := e.Schema(ds.Table)
			if err != nil {
				return nil, err
			}
			keyPos, ok := dimSchema.ColumnIndex(ds.Key)
			if !ok {
				return nil, fmt.Errorf("olap: dimension table %s has no key column %q", ds.Table, ds.Key)
			}
			for _, ls := range ds.Levels {
				pos, ok := dimSchema.ColumnIndex(ls.Column)
				if !ok {
					return nil, fmt.Errorf("olap: dimension table %s has no column %q", ds.Table, ls.Column)
				}
				dd.levelPos = append(dd.levelPos, pos)
			}
			dd.byKey = make(map[string][]storage.Value)
			err = e.ViewCtx(ctx, func(tx *storage.Tx) error {
				return tx.ScanBatches(ds.Table, cubeBatchRows, func(b *storage.Batch) error {
					for r := 0; r < b.Len(); r++ {
						vals := make([]storage.Value, len(dd.levelPos))
						for i, p := range dd.levelPos {
							vals[i] = b.Cols[p][r]
						}
						kbuf = storage.AppendKey(kbuf[:0], b.Cols[keyPos][r])
						dd.byKey[string(kbuf)] = vals
					}
					return nil
				})
			})
			if err != nil {
				return nil, err
			}
		}
		dd.rowVals = make([]storage.Value, len(dd.degenPos))
		dd.nulls = make([]storage.Value, len(ds.Levels))
		dimDatas = append(dimDatas, dd)
	}

	// Measure columns.
	measPos := make([]int, len(spec.Measures))
	for i, ms := range spec.Measures {
		if ms.Agg == AggCount && ms.Column == "" {
			measPos[i] = -1
			continue
		}
		pos, err := factCol(ms.Column)
		if err != nil {
			return nil, err
		}
		measPos[i] = pos
	}

	cube := &Cube{
		spec: spec,
		dims: make(map[string]*dimension, len(spec.Dimensions)),
		meas: make(map[string]*measure, len(spec.Measures)),
	}
	for _, ds := range spec.Dimensions {
		d := &dimension{spec: ds}
		for _, ls := range ds.Levels {
			d.levels = append(d.levels, &level{spec: ls, index: make(map[string]int32)})
		}
		cube.dims[strings.ToLower(ds.Name)] = d
		cube.dimList = append(cube.dimList, d)
	}
	for i, ms := range spec.Measures {
		cube.meas[strings.ToLower(ms.Name)] = &measure{spec: spec.Measures[i]}
	}

	// Single pass over the fact table, batch-at-a-time: the column-major
	// batch keeps the dimension/measure extraction loops on column
	// slices instead of re-materializing one row value at a time.
	err = e.ViewCtx(ctx, func(tx *storage.Tx) error {
		return tx.ScanBatches(spec.FactTable, cubeBatchRows, func(b *storage.Batch) error {
			for r := 0; r < b.Len(); r++ {
				for di, dd := range dimDatas {
					d := cube.dimList[di]
					var levelVals []storage.Value
					if dd.degenerte {
						levelVals = dd.rowVals
						for i, p := range dd.degenPos {
							levelVals[i] = b.Cols[p][r]
						}
					} else {
						fk := b.Cols[dd.fkPos][r]
						if fk != nil {
							kbuf = storage.AppendKey(kbuf[:0], fk)
							levelVals = dd.byKey[string(kbuf)]
						}
						if levelVals == nil {
							// Unmatched or NULL FK: every level reads as NULL.
							levelVals = dd.nulls
						}
					}
					for li, lv := range d.levels {
						kbuf = storage.AppendKey(kbuf[:0], levelVals[li])
						lv.codes = append(lv.codes, lv.encode(kbuf, levelVals[li]))
					}
				}
				for i, ms := range spec.Measures {
					m := cube.meas[strings.ToLower(ms.Name)]
					if measPos[i] < 0 {
						m.vals = append(m.vals, 1)
						m.isNull = append(m.isNull, false)
						continue
					}
					v := b.Cols[measPos[i]][r]
					if v == nil {
						m.vals = append(m.vals, 0)
						m.isNull = append(m.isNull, true)
						continue
					}
					f, ok := toFloat(v)
					if !ok {
						return fmt.Errorf("olap: cube %s: measure %s has non-numeric value %v", spec.Name, ms.Name, v)
					}
					m.vals = append(m.vals, f)
					m.isNull = append(m.isNull, false)
				}
				cube.rows++
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	cube.cache = newCellCache(256)
	cube.version = 1
	return cube, nil
}

// encode returns the dictionary code of member v, whose AppendKey form is
// key, adding v to the dictionary when it is new; only a new member makes
// a key string.
func (lv *level) encode(key []byte, v storage.Value) int32 {
	if code, ok := lv.index[string(key)]; ok {
		return code
	}
	code := int32(len(lv.dict))
	lv.dict = append(lv.dict, v)
	lv.index[string(key)] = code
	return code
}

func toFloat(v storage.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// dimension lookup helpers.

func (c *Cube) dimension(name string) (*dimension, error) {
	d, ok := c.dims[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("olap: cube %s has no dimension %q", c.spec.Name, name)
	}
	return d, nil
}

func (d *dimension) level(name string) (*level, int, error) {
	for i, lv := range d.levels {
		if strings.EqualFold(lv.spec.Name, name) {
			return lv, i, nil
		}
	}
	return nil, 0, fmt.Errorf("olap: dimension %s has no level %q", d.spec.Name, name)
}

// Members returns the distinct members of a level, sorted.
func (c *Cube) Members(dim, lvl string) ([]storage.Value, error) {
	d, err := c.dimension(dim)
	if err != nil {
		return nil, err
	}
	lv, _, err := d.level(lvl)
	if err != nil {
		return nil, err
	}
	out := append([]storage.Value(nil), lv.dict...)
	sort.Slice(out, func(i, j int) bool { return storage.Compare(out[i], out[j]) < 0 })
	return out, nil
}

// Dimensions lists dimension names in declaration order.
func (c *Cube) Dimensions() []string {
	out := make([]string, len(c.dimList))
	for i, d := range c.dimList {
		out[i] = d.spec.Name
	}
	return out
}

// Levels lists the level names of a dimension, coarse→fine.
func (c *Cube) Levels(dim string) ([]string, error) {
	d, err := c.dimension(dim)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(d.levels))
	for i, lv := range d.levels {
		out[i] = lv.spec.Name
	}
	return out, nil
}

// MeasureNames lists measure names in declaration order.
func (c *Cube) MeasureNames() []string {
	out := make([]string, len(c.spec.Measures))
	for i, m := range c.spec.Measures {
		out[i] = m.Name
	}
	return out
}
