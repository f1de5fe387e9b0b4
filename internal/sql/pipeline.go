package sql

import (
	"errors"
	"fmt"
	"sort"

	"github.com/odbis/odbis/internal/storage"
)

// This file is the execution phase of the read path. It runs a compiled
// *Plan (planner.go) as a pipeline of operators that hand each other
// blocks of row references: storage keeps rows row-major, so a block
// row is one reference to the stored storage.Row per bound table and no
// value is copied between scan and projection. Storage delivers rows
// through callbacks, so the scan drives: it pushes each block it fills
// up the pipeline, which keeps one reused block per operator and
// gathers nothing. Expression evaluation binds to a block row through a
// reused rowView — no per-row environment allocation — and
// executor.step() runs once per row, so cooperative cancellation and
// the rows-scanned count keep row granularity.

// execBatchRows is the target row count per block. Joins may overshoot
// when one probe row matches many build rows; blocks grow as needed.
const execBatchRows = 256

// block is the unit of flow between operators: n joined rows laid out
// flat, nb references each.
type block struct {
	nb   int           // references per row: the tables bound so far
	n    int           // rows
	refs []storage.Row // row r is refs[r*nb : (r+1)*nb]
}

func (b *block) row(r int) joined { return b.refs[r*b.nb : (r+1)*b.nb] }

// sink is the consuming side of an operator: the operator below calls
// it once per block it produces. The block belongs to the producer, is
// valid only during the call, and may be compacted in place.
type sink func(b *block) error

// rowView binds rows for the expression evaluator: it owns one rowEnv
// and one evalCtx over it, and operators re-point the env's tables at
// the current row instead of allocating an env per row. SELECT
// pipelines and UPDATE/DELETE predicates share it.
type rowView struct {
	env rowEnv
	ec  evalCtx
}

func (ex *executor) newRowView(bindings []binding, outer *rowEnv, params []storage.Value) *rowView {
	v := &rowView{}
	v.env.outer = outer
	v.env.tables = make([]boundTable, len(bindings))
	for i, b := range bindings {
		v.env.tables[i] = boundTable{name: b.name, cols: b.cols}
	}
	v.ec = evalCtx{row: &v.env, params: params, exec: ex, now: ex.now}
	return v
}

// bind points the view at one joined row. Tables past len(row) — all
// of them for the nil row of an empty group — read as NULL.
func (v *rowView) bind(row joined) {
	for i := range v.env.tables {
		if i < len(row) {
			v.env.tables[i].vals = row[i]
		} else {
			v.env.tables[i].vals = nil
		}
	}
}

// setRow points table i alone at vals (nil = NULL-extended).
func (v *rowView) setRow(i int, vals storage.Row) { v.env.tables[i].vals = vals }

// runPipeline runs one plan arm's scan → joins → filter and hands
// every block that comes out of it to out. The operators are assembled
// from the top down, so each join reads its table before the one
// below it and the base scan starts last.
func (ex *executor) runPipeline(sp *selectPlan, params []storage.Value, outer *rowEnv, out sink) error {
	if sp.where != nil {
		out = ex.filterInto(sp, params, outer, out)
	}
	for i := len(sp.joins) - 1; i >= 0; i-- {
		var err error
		if out, err = ex.joinInto(sp, i, params, outer, out); err != nil {
			return err
		}
	}
	if sp.base.access == accessConst {
		return out(&block{n: 1}) // the single empty row of a FROM-less SELECT
	}
	return ex.scanInto(&sp.base, params, out)
}

// scanInto reads the base table through the storage row callbacks —
// Tx.Scan, LookupEqual or ScanRange, a snapshot read in each — and
// pushes the row references to out a block at a time. Index key
// expressions are evaluated once, here; one that fails to evaluate, or
// an index dropped since the plan was resolved, degrades to a full
// scan.
func (ex *executor) scanInto(step *scanStep, params []storage.Value, out sink) error {
	access := step.access
	var key []storage.Value
	var lo, hi []storage.Value
	if access == accessIndexEq || access == accessIndexRange {
		ec := &evalCtx{params: params, now: ex.now}
		ok := true
		eval1 := func(e Expr) storage.Value {
			if !ok || e == nil {
				return nil
			}
			v, err := ec.eval(e)
			if err != nil {
				ok = false
				return nil
			}
			return v
		}
		switch access {
		case accessIndexEq:
			key = make([]storage.Value, len(step.eqKey))
			for i, e := range step.eqKey {
				key[i] = eval1(e)
			}
		case accessIndexRange:
			if step.lo != nil {
				if v := eval1(step.lo); ok {
					lo = []storage.Value{v}
				}
			}
			if step.hi != nil {
				if v := eval1(step.hi); ok {
					hi = []storage.Value{v}
				}
			}
		}
		if !ok {
			access = accessFull
		}
	}

	b := block{nb: 1}
	flush := func() error {
		b.n = len(b.refs)
		err := out(&b)
		b.refs = b.refs[:0]
		return err
	}
	var outErr error
	collect := func(_ storage.RID, row storage.Row) bool {
		b.refs = append(b.refs, row)
		if len(b.refs) == execBatchRows {
			outErr = flush()
		}
		return outErr == nil
	}
	var err error
	switch access {
	case accessIndexEq:
		err = ex.tx.LookupEqual(step.table, step.index, key, collect)
	case accessIndexRange:
		err = ex.tx.ScanRange(step.table, step.index, lo, hi, collect)
	}
	// The plan was validated against the schema epoch when it was
	// resolved, but the index is looked up by name only now: a DROP INDEX
	// committed in between must cost a full scan, not the statement. The
	// WHERE clause stays the residual filter, so the scan returns the
	// same rows.
	if access == accessFull || errors.Is(err, storage.ErrNoIndex) {
		err = ex.tx.Scan(step.table, collect)
	}
	if err == nil {
		err = outErr
	}
	if err == nil && len(b.refs) > 0 {
		err = flush()
	}
	return err
}

// joinInto returns the sink of join i: it joins each left block with
// one more table and pushes the joined rows to out. Hash joins build a
// map over the new table keyed by the planned equi-key; other joins
// nest-loop over the materialized right rows. An output row is the left
// row's references plus one for the new table.
func (ex *executor) joinInto(sp *selectPlan, i int, params []storage.Value, outer *rowEnv, out sink) (sink, error) {
	js := &sp.joins[i]
	lidx := i + 1 // index of the new binding; left is bindings[:lidx]
	var rights []storage.Row
	err := ex.tx.Scan(js.scan.table, func(_ storage.RID, row storage.Row) bool {
		rights = append(rights, row)
		return true
	})
	if err != nil {
		return nil, err
	}

	b := block{nb: lidx + 1}
	// emit appends left widened with right (nil = NULL-extended).
	emit := func(left joined, right storage.Row) {
		b.refs = append(append(b.refs, left...), right)
		b.n++
	}
	flush := func() error {
		if b.n == 0 {
			return nil
		}
		err := out(&b)
		b.n, b.refs = 0, b.refs[:0]
		return err
	}

	// match emits every joined row of one left row.
	var match func(left joined) error
	if js.hash {
		// Key bytes of newKey -> index into matches, which holds the
		// rights indexes per key; keys are encoded into one reused buffer
		// and a key string is made only for a key not seen before.
		table := make(map[string]int, len(rights))
		matches := make([][]int, 0, len(rights))
		var kbuf []byte
		rview := ex.newRowView(sp.bindings[lidx:lidx+1], nil, params)
		for ri, rr := range rights {
			if err := ex.step(); err != nil {
				return nil, err
			}
			rview.setRow(0, rr)
			kv, err := rview.ec.eval(js.newKey)
			if err != nil {
				return nil, err
			}
			if kv == nil {
				continue // NULL keys never join
			}
			kbuf = storage.AppendKey(kbuf[:0], kv)
			if m, ok := table[string(kbuf)]; ok {
				matches[m] = append(matches[m], ri)
			} else {
				table[string(kbuf)] = len(matches)
				matches = append(matches, []int{ri})
			}
		}
		lview := ex.newRowView(sp.bindings[:lidx], outer, params) // left prefix: the probe key
		match = func(left joined) error {
			if err := ex.step(); err != nil {
				return err
			}
			lview.bind(left)
			kv, err := lview.ec.eval(js.oldKey)
			if err != nil {
				return err
			}
			matched := false
			if kv != nil {
				kbuf = storage.AppendKey(kbuf[:0], kv)
				if m, ok := table[string(kbuf)]; ok {
					for _, ri := range matches[m] {
						emit(left, rights[ri])
					}
					matched = true
				}
			}
			if !matched && js.kind == JoinLeft {
				emit(left, nil)
			}
			return nil
		}
	} else {
		// Nested loop (and CROSS, whose nil ON matches every pair).
		onview := ex.newRowView(sp.bindings[:lidx+1], outer, params)
		match = func(left joined) error {
			onview.bind(left)
			matched := false
			for _, rr := range rights {
				if err := ex.step(); err != nil {
					return err
				}
				if js.on != nil {
					onview.setRow(lidx, rr)
					ok, err := onview.ec.evalBool(js.on)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				emit(left, rr)
				matched = true
			}
			if !matched && js.kind == JoinLeft {
				emit(left, nil)
			}
			return nil
		}
	}

	return func(lb *block) error {
		for r := 0; r < lb.n; r++ {
			if err := match(lb.row(r)); err != nil {
				return err
			}
			if b.n >= execBatchRows {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return flush()
	}, nil
}

// filterInto returns the sink of the WHERE predicate: it compacts each
// block in place — surviving rows shift down and the block shrinks —
// and passes on what is left.
func (ex *executor) filterInto(sp *selectPlan, params []storage.Value, outer *rowEnv, out sink) sink {
	view := ex.newRowView(sp.bindings, outer, params)
	return func(b *block) error {
		w := 0
		for r := 0; r < b.n; r++ {
			if err := ex.step(); err != nil {
				return err
			}
			row := b.row(r)
			view.bind(row)
			ok, err := view.ec.evalBool(sp.where)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if w != r {
				copy(b.row(w), row)
			}
			w++
		}
		if w == 0 {
			return nil
		}
		b.n, b.refs = w, b.refs[:w*b.nb]
		return out(b)
	}
}

// execPlan runs a compiled plan: one core, or a UNION chain combined
// left to right with the union-level ORDER BY/LIMIT applied last.
func (ex *executor) execPlan(p *Plan, params []storage.Value, outer *rowEnv) (*Result, error) {
	if len(p.arms) == 1 {
		return ex.execCore(p.arms[0], params, outer)
	}
	first, err := ex.execCore(p.arms[0], params, outer)
	if err != nil {
		return nil, err
	}
	acc := first.Rows
	for i := 1; i < len(p.arms); i++ {
		right, err := ex.execCore(p.arms[i], params, outer)
		if err != nil {
			return nil, err
		}
		acc = append(acc, right.Rows...)
		if !p.unionAll[i-1] {
			seen := make(map[string]bool, len(acc))
			dedup := acc[:0]
			var kbuf []byte
			for _, row := range acc {
				kbuf = storage.AppendKey(kbuf[:0], row...)
				if !seen[string(kbuf)] {
					seen[string(kbuf)] = true
					dedup = append(dedup, row)
				}
			}
			acc = dedup
		}
	}
	if len(p.orderKeys) > 0 {
		storage.SortRows(acc, p.orderKeys)
	}
	if p.limit != nil || p.offset != nil {
		lim, off, err := ex.evalLimitOffset(p.limit, p.offset, params)
		if err != nil {
			return nil, err
		}
		if off > len(acc) {
			off = len(acc)
		}
		acc = acc[off:]
		if lim >= 0 && lim < len(acc) {
			acc = acc[:lim]
		}
	}
	return &Result{Columns: p.columns, Rows: acc, Plan: p.access}, nil
}

// execCore runs one plan arm end to end: pipeline, optional grouping,
// projection, DISTINCT, ORDER BY, LIMIT.
func (ex *executor) execCore(sp *selectPlan, params []storage.Value, outer *rowEnv) (*Result, error) {
	view := ex.newRowView(sp.bindings, outer, params)

	type outRow struct {
		vals storage.Row
		keys storage.Row // ORDER BY sort keys
	}
	var outs []outRow

	project := func(ec *evalCtx) error {
		vals := make(storage.Row, len(sp.items))
		for i, item := range sp.items {
			v, err := ec.eval(item.Expr)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		var keys storage.Row
		if len(sp.orderBy) > 0 {
			keys = make(storage.Row, len(sp.orderBy))
			for i, oe := range sp.orderBy {
				v, err := ec.eval(oe)
				if err != nil {
					return err
				}
				keys[i] = v
			}
		}
		outs = append(outs, outRow{vals: vals, keys: keys})
		return nil
	}

	if sp.grouped {
		groups, err := ex.groupBlocks(sp, params, outer, view)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			if err := ex.step(); err != nil {
				return nil, err
			}
			view.bind(g.rep)
			view.ec.aggs = g.aggs
			if sp.having != nil {
				ok, err := view.ec.evalBool(sp.having)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if err := project(&view.ec); err != nil {
				return nil, err
			}
		}
	} else {
		err := ex.runPipeline(sp, params, outer, func(b *block) error {
			for r := 0; r < b.n; r++ {
				if err := ex.step(); err != nil {
					return err
				}
				view.bind(b.row(r))
				if err := project(&view.ec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// DISTINCT.
	if sp.distinct {
		seen := make(map[string]bool, len(outs))
		dedup := outs[:0]
		var kbuf []byte
		for _, o := range outs {
			kbuf = storage.AppendKey(kbuf[:0], o.vals...)
			if !seen[string(kbuf)] {
				seen[string(kbuf)] = true
				dedup = append(dedup, o)
			}
		}
		outs = dedup
	}

	// ORDER BY. Sorting is not interruptible mid-comparison, so the
	// checkpoint runs once before the sort starts.
	if len(sp.orderBy) > 0 {
		if ex.ctx != nil {
			if err := ex.ctx.Err(); err != nil {
				return nil, err
			}
		}
		sort.SliceStable(outs, func(i, j int) bool {
			for k := range sp.orderBy {
				c := storage.Compare(outs[i].keys[k], outs[j].keys[k])
				if c == 0 {
					continue
				}
				if sp.orderDsc[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// LIMIT / OFFSET.
	if sp.limit != nil || sp.offset != nil {
		lim, off, err := ex.evalLimitOffset(sp.limit, sp.offset, params)
		if err != nil {
			return nil, err
		}
		if off > len(outs) {
			off = len(outs)
		}
		outs = outs[off:]
		if lim >= 0 && lim < len(outs) {
			outs = outs[:lim]
		}
	}

	res := &Result{Columns: sp.columns, Plan: sp.access}
	res.Rows = make([]storage.Row, len(outs))
	for i, o := range outs {
		res.Rows[i] = o.vals
	}
	return res, nil
}

// vgroup accumulates one GROUP BY bucket: the representative row (its
// own copy of the references; nil for the synthetic empty group of an
// aggregate over zero rows) and the finished aggregate values.
type vgroup struct {
	rep  joined
	aggs map[*FuncCall]storage.Value
}

func (ex *executor) groupBlocks(sp *selectPlan, params []storage.Value, outer *rowEnv, view *rowView) ([]*vgroup, error) {
	type bucket struct {
		g      *vgroup
		states []*aggState
	}
	// Buckets in first-seen order, and by key: each row's key is encoded
	// into kbuf and looked up without a string; a key string is made
	// only for a new group.
	order := make([]*bucket, 0, 16)
	buckets := map[string]*bucket{}
	var kbuf []byte

	err := ex.runPipeline(sp, params, outer, func(b *block) error {
		for r := 0; r < b.n; r++ {
			if err := ex.step(); err != nil {
				return err
			}
			view.bind(b.row(r))
			kbuf = kbuf[:0]
			for _, ge := range sp.groupBy {
				v, err := view.ec.eval(ge)
				if err != nil {
					return err
				}
				kbuf = storage.AppendKey(kbuf, v)
			}
			bk, ok := buckets[string(kbuf)]
			if !ok {
				bk = &bucket{
					g:      &vgroup{rep: append(joined(nil), b.row(r)...)},
					states: make([]*aggState, len(sp.aggs)),
				}
				for i := range bk.states {
					bk.states[i] = &aggState{}
				}
				buckets[string(kbuf)] = bk
				order = append(order, bk)
			}
			for i, node := range sp.aggs {
				if err := ex.accumulate(bk.states[i], node, &view.ec); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// With no GROUP BY, aggregates over zero rows still yield one group.
	if len(sp.groupBy) == 0 && len(order) == 0 {
		bk := &bucket{g: &vgroup{}, states: make([]*aggState, len(sp.aggs))}
		for i := range bk.states {
			bk.states[i] = &aggState{}
		}
		order = append(order, bk)
	}

	groups := make([]*vgroup, 0, len(order))
	for _, bk := range order {
		bk.g.aggs = make(map[*FuncCall]storage.Value, len(sp.aggs))
		for i, node := range sp.aggs {
			bk.g.aggs[node] = finishAggregate(node, bk.states[i])
		}
		groups = append(groups, bk.g)
	}
	return groups, nil
}

// evalLimitOffset evaluates LIMIT/OFFSET expressions (lim -1 = none).
func (ex *executor) evalLimitOffset(limitE, offsetE Expr, params []storage.Value) (lim, off int, err error) {
	lim = -1
	ec := &evalCtx{params: params, now: ex.now}
	if limitE != nil {
		v, err := ec.eval(limitE)
		if err != nil {
			return 0, 0, err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return 0, 0, fmt.Errorf("sql: LIMIT must be a non-negative integer")
		}
		lim = int(n)
	}
	if offsetE != nil {
		v, err := ec.eval(offsetE)
		if err != nil {
			return 0, 0, err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return 0, 0, fmt.Errorf("sql: OFFSET must be a non-negative integer")
		}
		off = int(n)
	}
	return lim, off, nil
}
