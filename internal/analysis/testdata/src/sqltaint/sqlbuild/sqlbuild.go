// Package sqlbuild is the helper half of the cross-package taint
// fixture: it assembles query strings from its arguments, so taint must
// flow through its summaries into callers in package app.
package sqlbuild

import (
	"context"
	"fmt"

	"github.com/odbis/odbis/internal/sql"
)

// WhereName formats its argument into a query: callers passing request
// input through here build a tainted query (deps → build in the
// summary).
func WhereName(name string) string {
	return fmt.Sprintf("SELECT id FROM users WHERE name = '%s'", name)
}

// Run concatenates its argument into a query and executes it: a sink
// obligation that fires at the caller's call site when the caller's
// argument is request-derived.
func Run(ctx context.Context, db *sql.DB, id string) error {
	_, err := db.QueryContext(ctx, "SELECT * FROM t WHERE id = '"+id+"'")
	return err
}

// Clean uses placeholders; no obligation, no finding anywhere.
func Clean(ctx context.Context, db *sql.DB, id string) error {
	_, err := db.QueryContext(ctx, "SELECT * FROM t WHERE id = ?", id)
	return err
}
