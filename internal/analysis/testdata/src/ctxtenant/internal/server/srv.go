// Package server is the ctxtenant fixture. Its import path ends in
// internal/server, so groupOf places it in the "server" group and its
// request-taking functions are handler boundaries: the request context
// and tenant identity are established here and must flow into every
// reachable storage access.
package server

import (
	"context"
	"net/http"

	"github.com/odbis/odbis/internal/analysis/testdata/src/ctxtenant/internal/services"
	"github.com/odbis/odbis/internal/analysis/testdata/src/ctxtenant/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/tenant"
)

// HandleBad reaches storage through a helper whose signature has no
// context at all: the finding lands on the access inside the helper.
func HandleBad(w http.ResponseWriter, r *http.Request, e *storage.Engine) {
	rawLookup(e, r.URL.Path)
}

func rawLookup(e *storage.Engine, name string) bool {
	return e.HasTable(name) // want `rawLookup calls storage\.Engine\.HasTable with no context\.Context on its signature \(reachable from handler server\.HandleBad via server\.rawLookup\)`
}

// HandleCatalog threads the tenant Catalog but not a context: identity
// is in scope, yet cancellation cannot reach the access, so since the
// context-first refactor this is flagged too.
func HandleCatalog(w http.ResponseWriter, r *http.Request, cat *tenant.Catalog, e *storage.Engine) {
	catalogLookup(cat, e, "orders")
}

func catalogLookup(cat *tenant.Catalog, e *storage.Engine, name string) bool {
	return e.HasTable(cat.Physical(name)) // want `catalogLookup calls storage\.Engine\.HasTable with no context\.Context on its signature`
}

// HandleCtx threads a context.Context carrying identity and lifetime.
func HandleCtx(w http.ResponseWriter, r *http.Request, e *storage.Engine) {
	ctxLookup(r.Context(), e, "orders")
}

func ctxLookup(ctx context.Context, e *storage.Engine, name string) bool {
	return e.HasTable(name) // ok: context carries identity and deadline
}

// HandleBridged reaches a below-server helper that, lacking a context
// of its own, manufactures a root context to satisfy a ctx-first API;
// the rule-2 finding lands in the services fixture package.
func HandleBridged(w http.ResponseWriter, r *http.Request, e *storage.Engine) {
	services.BridgedLookup(e)
}

// HandleSQLShim reaches a ctx-less function in the sql group: the
// namespace owners are exempt from rule 1 only, so the manufactured
// root is flagged in the sql fixture package.
func HandleSQLShim(w http.ResponseWriter, r *http.Request, e *storage.Engine) {
	sql.Shim(e, "orders")
}

// HandleDetached may mint a root context: the server layer is where
// request-independent lifetimes (startup, background publish) begin.
func HandleDetached(w http.ResponseWriter, r *http.Request, e *storage.Engine) {
	ctxLookup(context.Background(), e, "orders") // ok: server layer owns lifetimes
}

// notReachable is never called from a handler: no finding even though
// it carries nothing.
func notReachable(e *storage.Engine) bool {
	return e.HasTable("x")
}

// HandleSuppressed shows the justified-suppression escape hatch for
// substrates handed pre-resolved physical names.
func HandleSuppressed(w http.ResponseWriter, r *http.Request, e *storage.Engine) {
	physicalProbe(e)
}

func physicalProbe(e *storage.Engine) bool {
	return e.HasTable("t1_orders") //odbis:ignore ctxtenant -- fixture: physical name resolved upstream
}
