package services

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

// TestStatementPathParity runs the same statements through every way
// into the SQL engine — DB.QueryContext, DB.QueryTx, Catalog.Query and
// Session.Query — and asserts they are one path: identical results and
// errors, and a plan-cache delta of exactly one miss for a cold SELECT,
// exactly one hit for a repeated one, and nothing for anything else.
// Each path works on its own table so the DDL and INSERT steps repeat
// cleanly; the table name (and the alias the tenant rewrite gives it in
// EXPLAIN output) is masked before outcomes are compared.
func TestStatementPathParity(t *testing.T) {
	p, _ := newPlatform(t)
	ada := designer(t, p)
	eng := p.Registry.Engine()
	db := sql.NewDB(eng)
	ctx := context.Background()

	steps := []struct {
		name         string
		query        string // %s = the path's table
		args         []storage.Value
		hits, misses uint64
	}{
		{name: "ddl", query: "CREATE TABLE %s (id INT PRIMARY KEY, v TEXT)"},
		{name: "insert", query: "INSERT INTO %s VALUES (1, 'a'), (2, 'b')"},
		{name: "cold select", query: "SELECT v FROM %s WHERE id = ?", args: []storage.Value{int64(1)}, misses: 1},
		{name: "cached select", query: "SELECT v FROM %s WHERE id = ?", args: []storage.Value{int64(2)}, hits: 1},
		{name: "explain", query: "EXPLAIN SELECT v FROM %s WHERE id = 1"},
		{name: "parse error", query: "SELEC v FROM %s"},
	}
	paths := []struct {
		name    string
		logical string
		raw     bool // the caller names the physical table itself
		run     func(q string, args []storage.Value) (*sql.Result, error)
	}{
		{"DB.QueryContext", "pp_ctx", true, func(q string, args []storage.Value) (*sql.Result, error) {
			return db.QueryContext(ctx, q, args...)
		}},
		{"DB.QueryTx", "pp_tx", true, func(q string, args []storage.Value) (res *sql.Result, err error) {
			err = eng.UpdateCtx(ctx, func(tx *storage.Tx) error {
				res, err = db.QueryTx(tx, q, args...)
				return err
			})
			return res, err
		}},
		{"Catalog.Query", "pp_cat", false, func(q string, args []storage.Value) (*sql.Result, error) {
			return ada.Catalog.Query(ctx, q, args...)
		}},
		{"Session.Query", "pp_sess", false, func(q string, args []storage.Value) (*sql.Result, error) {
			return ada.Query(ctx, q, args...)
		}},
	}

	for _, step := range steps {
		var want string
		for i, path := range paths {
			physical := ada.Catalog.Physical(path.logical)
			table := path.logical
			if path.raw {
				table = physical
			}
			before := db.PlanCacheStats()
			res, err := path.run(fmt.Sprintf(step.query, table), step.args)
			after := db.PlanCacheStats()
			if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != step.hits || m != step.misses {
				t.Errorf("%s via %s: plan cache +%d hits +%d misses, want +%d +%d", step.name, path.name, h, m, step.hits, step.misses)
			}
			got := fmt.Sprintf("err=%v", err)
			if err == nil {
				got = fmt.Sprintf("cols=%v rows=%v affected=%d", res.Columns, res.Rows, res.Affected)
			}
			got = strings.NewReplacer(" as "+path.logical, "", physical, "T", path.logical, "T").Replace(got)
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s via %s:\n got  %s\n want %s (as via %s)", step.name, path.name, got, want, paths[0].name)
			}
		}
	}
}
