package sql

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/storage"
)

// DB executes SQL against a storage engine.
type DB struct {
	// Engine is the underlying storage engine.
	Engine *storage.Engine
	// DisableIndexes forces full scans even when an index matches the
	// predicate; used by the index-ablation benchmarks (DESIGN.md A1).
	DisableIndexes bool
}

// NewDB wraps an engine.
func NewDB(e *storage.Engine) *DB { return &DB{Engine: e} }

// Result is the outcome of a query.
type Result struct {
	Columns []string
	Rows    []storage.Row
	// Affected is the row count touched by INSERT/UPDATE/DELETE.
	Affected int
	// Plan describes the chosen access path for the outermost table
	// ("scan" or "index:<name>"), for tests and EXPLAIN-style output.
	Plan string
}

// QueryContext prepares query and executes it in its own transaction.
// Positional ? placeholders bind to args in order.
func (db *DB) QueryContext(ctx context.Context, query string, args ...storage.Value) (*Result, error) {
	st, err := db.Prepare("", query, nil)
	if err != nil {
		return nil, err
	}
	return st.QueryContext(ctx, args...)
}

// QueryTx prepares query and executes it inside an existing transaction.
func (db *DB) QueryTx(tx *storage.Tx, query string, args ...storage.Value) (*Result, error) {
	st, err := db.Prepare("", query, nil)
	if err != nil {
		return nil, err
	}
	return st.QueryTx(tx, args...)
}

func (db *DB) newExecutor(tx *storage.Tx) *executor {
	return &executor{db: db, tx: tx, ctx: tx.Context(), now: time.Now().UTC().Truncate(time.Microsecond)}
}

// flush publishes the executor's locally accumulated figures in one
// shot per statement — the per-row loops stay metric-free.
func (ex *executor) flush() {
	mSQLStatements.Inc()
	if ex.ticks > 0 {
		mSQLRows.Add(int64(ex.ticks))
		obs.AddTenant(ex.ctx, obs.TenantRowsScanned, int64(ex.ticks))
	}
	if ex.yields > 0 {
		mSQLYields.Add(int64(ex.yields))
	}
}

func (ex *executor) run(stmt Statement, params []storage.Value) (*Result, error) {
	db := ex.db
	switch s := stmt.(type) {
	case *SelectStmt:
		return ex.runSelect(s, params, nil)
	case *ExplainStmt:
		return ex.runExplain(s)
	case *InsertStmt:
		return ex.runInsert(s, params)
	case *UpdateStmt:
		return ex.runUpdate(s, params)
	case *DeleteStmt:
		return ex.runDelete(s, params)
	case *CreateTableStmt:
		if s.IfNotExists && db.Engine.HasTable(s.Schema.Name) {
			return &Result{}, nil
		}
		return &Result{}, db.Engine.CreateTable(s.Schema)
	case *CreateIndexStmt:
		return &Result{}, db.Engine.CreateIndex(s.Info)
	case *DropTableStmt:
		if s.IfExists && !db.Engine.HasTable(s.Table) {
			return &Result{}, nil
		}
		return &Result{}, db.Engine.DropTable(s.Table)
	case *DropIndexStmt:
		return &Result{}, db.Engine.DropIndex(s.Table, s.Index)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

type executor struct {
	db     *DB
	tx     *storage.Tx
	ctx    context.Context
	now    time.Time
	ticks  int
	yields int
	// plans memoizes compiled plans per statement node for the duration
	// of one top-level statement, so a correlated subquery planned once
	// is reused for every outer row. The top-level entry may be seeded
	// from the engine-wide plan cache (plancache.go).
	plans map[*SelectStmt]*Plan
}

// step is the executor's cooperative-cancellation checkpoint, called once
// per row in the filter/join/group/projection loops. Only every 64th call
// consults the context so the hot path stays branch-cheap.
func (ex *executor) step() error {
	ex.ticks++
	if ex.ticks&63 != 0 || ex.ctx == nil {
		return nil
	}
	ex.yields++
	return ex.ctx.Err()
}

// joined is one row of the join pipeline: one reference to a stored
// storage.Row per bound table (nil = null-extended LEFT side).
type joined []storage.Row

// binding describes one FROM entry's name and columns.
type binding struct {
	name string // lower-cased alias or table name
	cols []string
}

func (ex *executor) schemaOf(table string) (*storage.Schema, error) {
	return ex.db.Engine.Schema(table)
}

func lowerCols(s *storage.Schema) []string {
	cols := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = strings.ToLower(c.Name)
	}
	return cols
}

// runSelect executes a SELECT through the compiled read path: resolve
// (or build) the plan, then run it (pipeline.go). outer supplies
// bindings for correlated subqueries.
func (ex *executor) runSelect(sel *SelectStmt, params []storage.Value, outer *rowEnv) (*Result, error) {
	p, err := ex.planFor(sel)
	if err != nil {
		return nil, err
	}
	return ex.execPlan(p, params, outer)
}

// planFor returns the memoized plan for sel, compiling it on first
// use. The memo lives for one top-level statement, so a correlated
// subquery re-executed per outer row plans exactly once.
func (ex *executor) planFor(sel *SelectStmt) (*Plan, error) {
	if p, ok := ex.plans[sel]; ok {
		return p, nil
	}
	p, err := planSelect(ex.db, sel)
	if err != nil {
		return nil, err
	}
	if ex.plans == nil {
		ex.plans = make(map[*SelectStmt]*Plan, 1)
	}
	ex.plans[sel] = p
	return p, nil
}

// runExplain plans the inner SELECT without executing it and returns
// the rendered plan tree, one line per row.
func (ex *executor) runExplain(s *ExplainStmt) (*Result, error) {
	p, err := ex.planFor(s.Sel)
	if err != nil {
		return nil, err
	}
	lines := p.Explain()
	rows := make([]storage.Row, len(lines))
	for i, line := range lines {
		rows[i] = storage.Row{line}
	}
	return &Result{Columns: []string{"plan"}, Rows: rows, Plan: p.AccessPath()}, nil
}

// unionOrderPos resolves an ORDER BY key of a union to an output column
// position: 1-based literal, select alias, or projected column name.
func unionOrderPos(e Expr, items []SelectItem, columns []string) (int, error) {
	switch x := e.(type) {
	case *Literal:
		if n, ok := x.Val.(int64); ok {
			if n < 1 || int(n) > len(columns) {
				return 0, fmt.Errorf("sql: ORDER BY position %d is not in the select list", n)
			}
			return int(n - 1), nil
		}
	case *ColumnRef:
		if x.Table == "" {
			for i, item := range items {
				if item.Alias != "" && strings.EqualFold(item.Alias, x.Column) {
					return i, nil
				}
			}
			for i, c := range columns {
				if strings.EqualFold(c, x.Column) {
					return i, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("sql: ORDER BY over UNION must name an output column or position, got %s", e.String())
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max storage.Value
	distinct map[string]bool // keys of the values seen, for DISTINCT
	kbuf     []byte          // reused key buffer for distinct probes
}

func (ex *executor) accumulate(st *aggState, node *FuncCall, ec *evalCtx) error {
	if node.Star { // COUNT(*)
		st.count++
		return nil
	}
	if len(node.Args) != 1 {
		return fmt.Errorf("sql: %s takes exactly one argument", node.Name)
	}
	v, err := ec.eval(node.Args[0])
	if err != nil {
		return err
	}
	if v == nil {
		return nil // aggregates skip NULLs
	}
	if node.Distinct {
		if st.distinct == nil {
			st.distinct = make(map[string]bool)
		}
		st.kbuf = storage.AppendKey(st.kbuf[:0], v)
		if st.distinct[string(st.kbuf)] {
			return nil
		}
		st.distinct[string(st.kbuf)] = true
	}
	st.count++
	switch node.Name {
	case "COUNT":
	case "SUM", "AVG":
		switch x := v.(type) {
		case int64:
			st.sumI += x
			st.sumF += float64(x)
		case float64:
			st.isFloat = true
			st.sumF += x
		default:
			return fmt.Errorf("sql: %s requires numeric values, got %T", node.Name, v)
		}
	case "MIN":
		if st.min == nil || storage.Compare(v, st.min) < 0 {
			st.min = v
		}
	case "MAX":
		if st.max == nil || storage.Compare(v, st.max) > 0 {
			st.max = v
		}
	default:
		return fmt.Errorf("sql: unknown aggregate %s", node.Name)
	}
	return nil
}

func finishAggregate(node *FuncCall, st *aggState) storage.Value {
	switch node.Name {
	case "COUNT":
		return st.count
	case "SUM":
		if st.count == 0 {
			return nil
		}
		if st.isFloat {
			return st.sumF
		}
		return st.sumI
	case "AVG":
		if st.count == 0 {
			return nil
		}
		return st.sumF / float64(st.count)
	case "MIN":
		return st.min
	case "MAX":
		return st.max
	}
	return nil
}

// collectAggregates appends every aggregate FuncCall in e (not descending
// into subqueries, which are independently executed).
func collectAggregates(e Expr, acc []*FuncCall) []*FuncCall {
	switch x := e.(type) {
	case nil:
		return acc
	case *FuncCall:
		if isAggregate(x.Name) || x.Star && isAggregate(x.Name) {
			return append(acc, x)
		}
		for _, a := range x.Args {
			acc = collectAggregates(a, acc)
		}
	case *BinaryExpr:
		acc = collectAggregates(x.Left, acc)
		acc = collectAggregates(x.Right, acc)
	case *UnaryExpr:
		acc = collectAggregates(x.X, acc)
	case *InExpr:
		acc = collectAggregates(x.X, acc)
		for _, it := range x.List {
			acc = collectAggregates(it, acc)
		}
	case *BetweenExpr:
		acc = collectAggregates(x.X, acc)
		acc = collectAggregates(x.Lo, acc)
		acc = collectAggregates(x.Hi, acc)
	case *IsNullExpr:
		acc = collectAggregates(x.X, acc)
	case *CaseExpr:
		acc = collectAggregates(x.Operand, acc)
		for _, w := range x.Whens {
			acc = collectAggregates(w.Cond, acc)
			acc = collectAggregates(w.Then, acc)
		}
		acc = collectAggregates(x.Else, acc)
	case *CastExpr:
		acc = collectAggregates(x.X, acc)
	}
	return acc
}

// resolveRefs rewrites bare column refs matching select aliases and
// 1-based integer literals into the corresponding select expressions
// (GROUP BY 1, ORDER BY total).
func resolveRefs(exprs []Expr, items []SelectItem) ([]Expr, error) {
	if len(exprs) == 0 {
		return exprs, nil
	}
	out := make([]Expr, len(exprs))
	for i, e := range exprs {
		out[i] = e
		switch x := e.(type) {
		case *Literal:
			if n, ok := x.Val.(int64); ok {
				if n < 1 || int(n) > len(items) {
					return nil, fmt.Errorf("sql: position %d is not in the select list", n)
				}
				if items[n-1].Star {
					return nil, fmt.Errorf("sql: cannot reference * by position")
				}
				out[i] = items[n-1].Expr
			}
		case *ColumnRef:
			if x.Table != "" {
				continue
			}
			for _, item := range items {
				if item.Alias != "" && strings.EqualFold(item.Alias, x.Column) && !item.Star {
					out[i] = item.Expr
					break
				}
			}
		}
	}
	return out, nil
}

// expandStars replaces * and t.* items with explicit column refs.
func expandStars(items []SelectItem, bindings []binding) ([]SelectItem, error) {
	out := make([]SelectItem, 0, len(items))
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		matched := false
		for _, b := range bindings {
			if item.Table != "" && !strings.EqualFold(item.Table, b.name) {
				continue
			}
			matched = true
			for _, c := range b.cols {
				out = append(out, SelectItem{
					Expr:  &ColumnRef{Table: b.name, Column: c},
					Alias: c,
				})
			}
		}
		if !matched {
			if item.Table != "" {
				return nil, fmt.Errorf("sql: unknown table %q in %s.*", item.Table, item.Table)
			}
			return nil, fmt.Errorf("sql: SELECT * requires a FROM clause")
		}
	}
	return out, nil
}

func outputColumns(items []SelectItem) []string {
	cols := make([]string, len(items))
	for i, item := range items {
		switch {
		case item.Alias != "":
			cols[i] = item.Alias
		default:
			if cr, ok := item.Expr.(*ColumnRef); ok {
				cols[i] = cr.Column
			} else {
				cols[i] = item.Expr.String()
			}
		}
	}
	return cols
}
