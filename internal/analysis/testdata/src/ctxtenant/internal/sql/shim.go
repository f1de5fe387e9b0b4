// Package sql is the namespace-owner half of the ctxtenant fixture: its
// import path ends in internal/sql, so rule 1 does not apply (data
// access without a tenant value is the engine's own business), but
// rule 2 does — the SQL layer has no ctx-less entry point left, so a
// reached function here may not mint a root context either.
package sql

import (
	"context"

	"github.com/odbis/odbis/internal/storage"
)

// Shim is the deleted DB.Query shape: no context of its own, bridging
// to the ctx-first form with a manufactured root.
func Shim(e *storage.Engine, name string) bool {
	return Lookup(context.Background(), e, name) // want `Shim manufactures context\.Background\(\) below the server layer \(reachable from handler server\.HandleSQLShim via sql\.Shim\)`
}

// Lookup touches the engine with no tenant in sight: exempt from rule 1
// inside a namespace owner, and it threads the caller's context.
func Lookup(ctx context.Context, e *storage.Engine, name string) bool {
	return probe(e, name)
}

func probe(e *storage.Engine, name string) bool {
	return e.HasTable(name) // ok: rule 1 does not apply inside the sql group
}
