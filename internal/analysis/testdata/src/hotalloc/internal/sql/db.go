// Package sql is the hotalloc fixture's entry layer: its import path
// ends in internal/sql, so exported Query* methods on DB and Stmt, and
// DB.Prepare, are request-path entry points, and everything they reach
// is "hot".
package sql

import (
	"fmt"

	"github.com/odbis/odbis/internal/analysis/testdata/src/hotalloc/internal/format"
)

type DB struct{}

type Row struct {
	ID   int
	Name string
}

// Query is a request-path entry point. The allocations in its own loop
// are flagged directly. (The append itself is preallocated, so only the
// Sprintf fires.)
func (db *DB) Query(ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, fmt.Sprintf("row-%d", id)) // want `fmt\.Sprintf allocates \(formatting \+ interface boxing\) on every iteration of this hot loop`
	}
	return out
}

// Prepare reaches the cross-package helpers: the findings land in the
// format package, witnessed back to this entry point.
func (db *DB) Prepare(rows []Row) string {
	names := toNames(rows)
	format.Classify(names, func(s string) bool { return s != "" })
	format.Amortized(names)
	return format.RenderRows(names)
}

func toNames(rows []Row) []string {
	out := make([]string, 0, len(rows)) // preallocated: no finding
	for _, r := range rows {
		out = append(out, r.Name)
	}
	return out
}

// Stmt is the prepared-handle half of the statement surface: its
// Query* methods are entry points in their own right.
type Stmt struct{}

func (s *Stmt) QueryContext(ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, fmt.Sprintf("row-%d", id)) // want `fmt\.Sprintf allocates \(formatting \+ interface boxing\) on every iteration of this hot loop`
	}
	return out
}

// Statement is exported on Stmt but executes nothing: not an entry
// point, so its loop stays quiet.
func (s *Stmt) Statement(ids []int) []string {
	var out []string
	for _, id := range ids {
		out = append(out, fmt.Sprintf("row-%d", id)) // unreached: no finding
	}
	return out
}

// ColdPathOnly formats only on the error branch: the branch ends in a
// return, so it runs at most once per call and stays quiet.
func (db *DB) QueryOne(ids []int) (string, error) {
	for _, id := range ids {
		if id < 0 {
			return "", fmt.Errorf("negative id %d", id) // Errorf + cold path: no finding
		}
		if id == 0 {
			msg := fmt.Sprintf("zero id at %d", id) // cold: branch returns
			return msg, nil
		}
	}
	return "", nil
}

// notReachable has the same loops but no path from any entry point.
func notReachable(ids []int) []string {
	var out []string
	for _, id := range ids {
		out = append(out, fmt.Sprintf("row-%d", id)) // unreached: no finding
	}
	return out
}
