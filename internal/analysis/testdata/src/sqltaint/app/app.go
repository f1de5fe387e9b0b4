// Package app is the caller half of the sqltaint fixture: request
// parameters flow into query strings locally, through struct fields,
// and across the package boundary into sqlbuild.
package app

import (
	"context"
	"fmt"
	"net/http"

	"github.com/odbis/odbis/internal/analysis/testdata/src/sqltaint/sqlbuild"
	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/tenant"
)

// HandleDirect builds the query locally with Sprintf.
func HandleDirect(w http.ResponseWriter, r *http.Request, db *sql.DB) {
	q := fmt.Sprintf("SELECT * FROM orders WHERE region = '%s'", r.FormValue("region"))
	db.QueryContext(r.Context(), q) // want `built with fmt.Sprintf from request/tenant input`
}

// HandleInline passes the Sprintf straight to the sink: this shape also
// carries the mechanical placeholder fix.
func HandleInline(r *http.Request, db *sql.DB) {
	db.QueryContext(r.Context(), fmt.Sprintf("SELECT id FROM orders WHERE region = '%s'", r.FormValue("region"))) // want `built with fmt.Sprintf`
}

// HandleCross proves the cross-package flow: the query is assembled
// inside sqlbuild.WhereName, two hops from the request parameter.
func HandleCross(r *http.Request, db *sql.DB) {
	q := sqlbuild.WhereName(r.URL.Query().Get("name"))
	db.QueryContext(r.Context(), q) // want `built with fmt.Sprintf`
}

// HandleObligation proves sink obligations: the sink lives inside
// sqlbuild.Run; the finding surfaces here, where the tainted argument
// enters the chain.
func HandleObligation(r *http.Request, db *sql.DB) {
	sqlbuild.Run(r.Context(), db, r.FormValue("id")) // want `reaches sqlbuild.Run → sql.DB.QueryContext`
}

// reportReq mimics a decoded request body: assigning a tainted string
// to a field taints the value.
type reportReq struct {
	Table string
}

// HandleStruct proves coarse struct-field propagation.
func HandleStruct(r *http.Request, db *sql.DB) {
	var req reportReq
	req.Table = r.FormValue("t")
	q := "SELECT * FROM " + req.Table
	db.QueryContext(r.Context(), q) // want `built with string concatenation`
}

// HandlePlaceholder binds the value: the query literal is clean.
func HandlePlaceholder(r *http.Request, db *sql.DB) {
	db.QueryContext(r.Context(), "SELECT * FROM orders WHERE region = ?", r.FormValue("region")) // ok: bound parameter
}

// HandleRaw passes the request string through unformatted: the SQL text
// IS the request in this product, so this stays silent.
func HandleRaw(r *http.Request, db *sql.DB) {
	db.QueryContext(r.Context(), r.FormValue("q")) // ok: raw, not assembled
}

// HandleConst formats only constants: derived from nothing tainted.
func HandleConst(ctx context.Context, db *sql.DB) {
	q := fmt.Sprintf("SELECT * FROM shard_%d", 7)
	db.QueryContext(ctx, q) // ok: no request/tenant input involved
}

// HandleEverySink drives one built query through each surviving entry
// point: the text is the second argument of every one of them, after
// the ctx, tx, cache namespace or engine.
func HandleEverySink(r *http.Request, db *sql.DB, tx *storage.Tx, cat *tenant.Catalog, eng *storage.Engine) {
	q := "SELECT * FROM orders WHERE region = '" + r.FormValue("region") + "'"
	db.QueryTx(tx, q)         // want `query string for sql.DB.QueryTx is built with string concatenation`
	db.Prepare("", q, nil)    // want `query string for sql.DB.Prepare is built with string concatenation`
	cat.Query(r.Context(), q) // want `query string for tenant.Catalog.Query is built with string concatenation`
	cat.Exec(r.Context(), q)  // want `query string for tenant.Catalog.Exec is built with string concatenation`
	cat.Prepare(eng, q)       // want `query string for tenant.Catalog.Prepare is built with string concatenation`

	cat.Query(r.Context(), "SELECT * FROM orders WHERE region = ?", r.FormValue("region")) // ok: bound parameter
}

// HandleSuppressed shows the justified-suppression escape hatch.
func HandleSuppressed(r *http.Request, db *sql.DB) {
	q := "SELECT * FROM audit WHERE user = '" + r.FormValue("u") + "'"
	db.QueryContext(r.Context(), q) //odbis:ignore sqltaint -- fixture: demonstrates justified suppression
}
