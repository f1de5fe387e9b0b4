package etl

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

// Transform rewrites a record stream. Transforms must not mutate their
// input records.
type Transform interface {
	// Name identifies the transform in job reports.
	Name() string
	// Apply consumes the input stream and produces the output stream.
	Apply(in []Record) ([]Record, error)
}

// ContextTransform is implemented by transforms that do I/O and must
// observe request cancellation (e.g. Lookup, which reads a reference
// Source). Pipeline.Run prefers ApplyContext when available.
type ContextTransform interface {
	Transform
	ApplyContext(ctx context.Context, in []Record) ([]Record, error)
}

// applyTransform runs one transform, routing through ApplyContext when
// the transform observes cancellation.
func applyTransform(ctx context.Context, t Transform, in []Record) ([]Record, error) {
	if ct, ok := t.(ContextTransform); ok {
		return ct.ApplyContext(ctx, in)
	}
	return t.Apply(in)
}

// Filter keeps records matching a SQL predicate over the record's fields.
type Filter struct {
	// Condition is a SQL boolean expression, e.g. "amount > 0 AND
	// country = 'FR'".
	Condition string
}

// Name implements Transform.
func (f Filter) Name() string { return "filter(" + f.Condition + ")" }

// Apply implements Transform.
func (f Filter) Apply(in []Record) ([]Record, error) {
	expr, err := sql.CompileExpr(f.Condition)
	if err != nil {
		return nil, fmt.Errorf("etl: filter: %w", err)
	}
	var out []Record
	for _, rec := range in {
		ok, err := expr.EvalBool(rec)
		if err != nil {
			return nil, fmt.Errorf("etl: filter: %w", err)
		}
		if ok {
			out = append(out, rec)
		}
	}
	return out, nil
}

// Derive adds (or overwrites) a field computed from a SQL expression.
type Derive struct {
	Field      string
	Expression string
}

// Name implements Transform.
func (d Derive) Name() string { return "derive(" + d.Field + ")" }

// Apply implements Transform.
func (d Derive) Apply(in []Record) ([]Record, error) {
	expr, err := sql.CompileExpr(d.Expression)
	if err != nil {
		return nil, fmt.Errorf("etl: derive %s: %w", d.Field, err)
	}
	out := make([]Record, len(in))
	for i, rec := range in {
		v, err := expr.Eval(rec)
		if err != nil {
			return nil, fmt.Errorf("etl: derive %s: %w", d.Field, err)
		}
		nr := rec.Clone()
		nr[d.Field] = v
		out[i] = nr
	}
	return out, nil
}

// Rename renames fields; missing sources are ignored.
type Rename struct {
	// Mapping is old-name → new-name.
	Mapping map[string]string
}

// Name implements Transform.
func (r Rename) Name() string { return "rename" }

// Apply implements Transform.
func (r Rename) Apply(in []Record) ([]Record, error) {
	out := make([]Record, len(in))
	for i, rec := range in {
		nr := make(Record, len(rec))
		for k, v := range rec {
			if nk, ok := r.Mapping[k]; ok {
				nr[nk] = v
			} else {
				nr[k] = v
			}
		}
		out[i] = nr
	}
	return out, nil
}

// Project keeps only the listed fields (unknown names read as NULL).
type Project struct {
	Fields []string
}

// Name implements Transform.
func (p Project) Name() string { return "project(" + strings.Join(p.Fields, ",") + ")" }

// Apply implements Transform.
func (p Project) Apply(in []Record) ([]Record, error) {
	out := make([]Record, len(in))
	for i, rec := range in {
		nr := make(Record, len(p.Fields))
		for _, f := range p.Fields {
			nr[f] = rec[f]
		}
		out[i] = nr
	}
	return out, nil
}

// Lookup enriches records from a keyed reference table (a dimension
// lookup in DW terms).
type Lookup struct {
	// On is the input field whose value is the lookup key.
	On string
	// From supplies the reference records.
	From Source
	// Key is the key field within the reference records.
	Key string
	// Take lists reference fields copied into the record, optionally
	// renamed via "field AS alias".
	Take []string
	// Required makes unmatched keys an error; otherwise taken fields stay
	// NULL.
	Required bool
}

// Name implements Transform.
func (l Lookup) Name() string { return "lookup(" + l.On + ")" }

// Apply implements Transform.
func (l Lookup) Apply(in []Record) ([]Record, error) {
	return l.ApplyContext(context.Background(), in)
}

// ApplyContext implements ContextTransform: the reference-source read is
// bounded by ctx.
func (l Lookup) ApplyContext(ctx context.Context, in []Record) ([]Record, error) {
	refs, err := l.From.Read(ctx)
	if err != nil {
		return nil, fmt.Errorf("etl: lookup %s: %w", l.On, err)
	}
	index := make(map[string]Record, len(refs))
	var kbuf []byte // reused key buffer: probes make no key string
	for _, ref := range refs {
		k := ref[l.Key]
		if k == nil {
			continue
		}
		kbuf = storage.AppendKey(kbuf[:0], k)
		index[string(kbuf)] = ref
	}
	type taken struct{ src, dst string }
	takes := make([]taken, len(l.Take))
	for i, t := range l.Take {
		parts := strings.SplitN(t, " AS ", 2)
		if len(parts) == 2 {
			takes[i] = taken{src: strings.TrimSpace(parts[0]), dst: strings.TrimSpace(parts[1])}
		} else {
			takes[i] = taken{src: t, dst: t}
		}
	}
	out := make([]Record, len(in))
	for i, rec := range in {
		nr := rec.Clone()
		var ref Record
		if k := rec[l.On]; k != nil {
			kbuf = storage.AppendKey(kbuf[:0], k)
			ref = index[string(kbuf)]
		}
		if ref == nil && l.Required {
			return nil, fmt.Errorf("etl: lookup %s: no match for %v", l.On, rec[l.On])
		}
		for _, t := range takes {
			if ref != nil {
				nr[t.dst] = ref[t.src]
			} else {
				nr[t.dst] = nil
			}
		}
		out[i] = nr
	}
	return out, nil
}

// AggSpec is one aggregation of an Aggregate transform.
type AggSpec struct {
	// Field is the input field aggregated (ignored for "count").
	Field string
	// Op is one of count, sum, avg, min, max.
	Op string
	// As names the output field; defaults to op_field.
	As string
}

// Aggregate groups records and computes aggregations, producing one
// record per group.
type Aggregate struct {
	GroupBy []string
	Aggs    []AggSpec
}

// Name implements Transform.
func (a Aggregate) Name() string { return "aggregate(" + strings.Join(a.GroupBy, ",") + ")" }

// Apply implements Transform.
func (a Aggregate) Apply(in []Record) ([]Record, error) {
	type state struct {
		rec    Record
		counts []int64
		sums   []float64
		mins   []storage.Value
		maxs   []storage.Value
	}
	if len(a.Aggs) == 0 {
		return nil, fmt.Errorf("etl: aggregate: no aggregations")
	}
	for _, spec := range a.Aggs {
		switch spec.Op {
		case "count", "sum", "avg", "min", "max":
		default:
			return nil, fmt.Errorf("etl: aggregate: unknown op %q", spec.Op)
		}
	}
	var order []*state
	states := map[string]*state{}
	var kbuf []byte // reused key buffer: only a new group makes a key string
	for _, rec := range in {
		kbuf = kbuf[:0]
		for _, g := range a.GroupBy {
			kbuf = storage.AppendKey(kbuf, rec[g])
		}
		st, ok := states[string(kbuf)]
		if !ok {
			st = &state{
				rec:    make(Record, len(a.GroupBy)+len(a.Aggs)),
				counts: make([]int64, len(a.Aggs)),
				sums:   make([]float64, len(a.Aggs)),
				mins:   make([]storage.Value, len(a.Aggs)),
				maxs:   make([]storage.Value, len(a.Aggs)),
			}
			for _, g := range a.GroupBy {
				st.rec[g] = rec[g]
			}
			states[string(kbuf)] = st
			order = append(order, st)
		}
		for i, spec := range a.Aggs {
			v := rec[spec.Field]
			if spec.Op == "count" {
				if spec.Field == "" || v != nil {
					st.counts[i]++
				}
				continue
			}
			if v == nil {
				continue
			}
			st.counts[i]++
			switch spec.Op {
			case "sum", "avg":
				f, ok := asFloat(v)
				if !ok {
					return nil, fmt.Errorf("etl: aggregate %s(%s): non-numeric value %v", spec.Op, spec.Field, v)
				}
				st.sums[i] += f
			case "min":
				if st.mins[i] == nil || storage.Compare(v, st.mins[i]) < 0 {
					st.mins[i] = v
				}
			case "max":
				if st.maxs[i] == nil || storage.Compare(v, st.maxs[i]) > 0 {
					st.maxs[i] = v
				}
			}
		}
	}
	out := make([]Record, 0, len(order))
	for _, st := range order {
		for i, spec := range a.Aggs {
			name := spec.As
			if name == "" {
				name = spec.Op + "_" + spec.Field
				if spec.Field == "" {
					name = spec.Op
				}
			}
			switch spec.Op {
			case "count":
				st.rec[name] = st.counts[i]
			case "sum":
				st.rec[name] = st.sums[i]
			case "avg":
				if st.counts[i] == 0 {
					st.rec[name] = nil
				} else {
					st.rec[name] = st.sums[i] / float64(st.counts[i])
				}
			case "min":
				st.rec[name] = st.mins[i]
			case "max":
				st.rec[name] = st.maxs[i]
			}
		}
		out = append(out, st.rec)
	}
	return out, nil
}

func asFloat(v storage.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// Dedup drops records whose key fields repeat an earlier record.
type Dedup struct {
	Fields []string // empty means the whole record
}

// Name implements Transform.
func (d Dedup) Name() string { return "dedup" }

// Apply implements Transform.
func (d Dedup) Apply(in []Record) ([]Record, error) {
	seen := map[string]bool{}
	var out []Record
	var kbuf []byte // reused key buffer: only a new record makes a key string
	for _, rec := range in {
		fields := d.Fields
		if len(fields) == 0 {
			fields = rec.Fields()
		}
		kbuf = kbuf[:0]
		for _, f := range fields {
			kbuf = storage.AppendKey(kbuf, f, rec[f])
		}
		if seen[string(kbuf)] {
			continue
		}
		seen[string(kbuf)] = true
		out = append(out, rec)
	}
	return out, nil
}

// SortBy orders records by the given fields (prefix a field with '-' for
// descending).
type SortBy struct {
	Fields []string
}

// Name implements Transform.
func (s SortBy) Name() string { return "sort(" + strings.Join(s.Fields, ",") + ")" }

// Apply implements Transform.
func (s SortBy) Apply(in []Record) ([]Record, error) {
	out := append([]Record(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, f := range s.Fields {
			field, desc := f, false
			if strings.HasPrefix(f, "-") {
				field, desc = f[1:], true
			}
			c := storage.Compare(out[i][field], out[j][field])
			if c == 0 {
				continue
			}
			if desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return out, nil
}

// MapFunc applies an arbitrary Go function per record (escape hatch for
// logic the expression language cannot express). Returning nil drops the
// record.
type MapFunc struct {
	Label string
	Fn    func(Record) (Record, error)
}

// Name implements Transform.
func (m MapFunc) Name() string {
	if m.Label != "" {
		return m.Label
	}
	return "map"
}

// Apply implements Transform.
func (m MapFunc) Apply(in []Record) ([]Record, error) {
	var out []Record
	for _, rec := range in {
		nr, err := m.Fn(rec.Clone())
		if err != nil {
			return nil, fmt.Errorf("etl: %s: %w", m.Name(), err)
		}
		if nr != nil {
			out = append(out, nr)
		}
	}
	return out, nil
}
