package sql

import (
	"fmt"
	"strings"

	"github.com/odbis/odbis/internal/storage"
)

func (ex *executor) runInsert(ins *InsertStmt, params []storage.Value) (*Result, error) {
	schema, err := ex.schemaOf(ins.Table)
	if err != nil {
		return nil, err
	}
	cols := ins.Columns
	if len(cols) == 0 {
		cols = schema.ColumnNames()
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		pos, ok := schema.ColumnIndex(c)
		if !ok {
			return nil, fmt.Errorf("sql: table %s has no column %q", ins.Table, c)
		}
		positions[i] = pos
	}
	ec := &evalCtx{params: params, exec: ex, now: ex.now}
	affected := 0
	for _, exprRow := range ins.Rows {
		if err := ex.step(); err != nil {
			return nil, err
		}
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("sql: INSERT expects %d values, got %d", len(cols), len(exprRow))
		}
		row := make(storage.Row, len(schema.Columns))
		for i := range schema.Columns {
			row[i] = schema.Columns[i].Default
		}
		for i, e := range exprRow {
			v, err := ec.eval(e)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		if _, err := ex.tx.Insert(ins.Table, row); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{Affected: affected}, nil
}

// matching scans table and hands keep every visible row that where
// holds for (every row when where is nil): the predicate is evaluated
// inside the scan, on the stored row, with one checkpoint per scanned
// row, and a predicate error aborts the scan and is returned. UPDATE and
// DELETE collect their targets through it and apply afterwards.
func (ex *executor) matching(table string, view *rowView, where Expr, keep func(storage.RID, storage.Row)) error {
	var predErr error
	err := ex.tx.Scan(table, func(rid storage.RID, row storage.Row) bool {
		if predErr = ex.step(); predErr != nil {
			return false
		}
		if where != nil {
			view.setRow(0, row)
			ok, err := view.ec.evalBool(where)
			if err != nil {
				predErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		keep(rid, row)
		return true
	})
	if err == nil {
		err = predErr
	}
	return err
}

func (ex *executor) runUpdate(upd *UpdateStmt, params []storage.Value) (*Result, error) {
	schema, err := ex.schemaOf(upd.Table)
	if err != nil {
		return nil, err
	}
	setPos := make([]int, len(upd.Set))
	for i, a := range upd.Set {
		pos, ok := schema.ColumnIndex(a.Column)
		if !ok {
			return nil, fmt.Errorf("sql: table %s has no column %q", upd.Table, a.Column)
		}
		setPos[i] = pos
	}
	type target struct {
		rid storage.RID
		row storage.Row
	}
	var targets []target
	view := ex.newRowView([]binding{{name: strings.ToLower(upd.Table), cols: lowerCols(schema)}}, nil, params)
	err = ex.matching(upd.Table, view, upd.Where, func(rid storage.RID, row storage.Row) {
		targets = append(targets, target{rid: rid, row: row})
	})
	if err != nil {
		return nil, err
	}
	for _, tgt := range targets {
		if err := ex.step(); err != nil {
			return nil, err
		}
		view.setRow(0, tgt.row)
		newRow := tgt.row.Clone()
		for i, a := range upd.Set {
			v, err := view.ec.eval(a.Value)
			if err != nil {
				return nil, err
			}
			newRow[setPos[i]] = v
		}
		if _, err := ex.tx.UpdateRID(upd.Table, tgt.rid, newRow); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(targets)}, nil
}

func (ex *executor) runDelete(del *DeleteStmt, params []storage.Value) (*Result, error) {
	schema, err := ex.schemaOf(del.Table)
	if err != nil {
		return nil, err
	}
	var rids []storage.RID
	view := ex.newRowView([]binding{{name: strings.ToLower(del.Table), cols: lowerCols(schema)}}, nil, params)
	err = ex.matching(del.Table, view, del.Where, func(rid storage.RID, _ storage.Row) {
		rids = append(rids, rid)
	})
	if err != nil {
		return nil, err
	}
	for _, rid := range rids {
		if err := ex.step(); err != nil {
			return nil, err
		}
		if err := ex.tx.DeleteRID(del.Table, rid); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(rids)}, nil
}
