// Package app is a tenantisolation fixture: service-layer code that
// must go through tenant.Catalog but addresses physical tables directly.
package app

import (
	"context"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/storage/orm"
)

type row struct {
	ID string `orm:"id,pk"`
}

func BadEngineAccess(e *storage.Engine) {
	e.DropTable("t_acme__orders")    // want `direct engine access to physical table "t_acme__orders"`
	_ = e.HasTable("t_acme__orders") // want `direct engine access to physical table "t_acme__orders"`
}

func BadTxAccess(e *storage.Engine) error {
	return e.View(func(tx *storage.Tx) error {
		_, err := tx.Count("t_acme__orders") // want `direct engine access to physical table "t_acme__orders"`
		return err
	})
}

func BadRawSQL(ctx context.Context, db *sql.DB, tx *storage.Tx) {
	db.QueryContext(ctx, "SELECT * FROM orders") // want `raw sql.DB.QueryContext with literal statement bypasses the tenant Catalog rewrite`
	db.QueryTx(tx, "DELETE FROM orders")         // want `raw sql.DB.QueryTx with literal statement bypasses the tenant Catalog rewrite`
	db.Prepare("", "SELECT * FROM orders", nil)  // want `raw sql.DB.Prepare with literal statement bypasses the tenant Catalog rewrite`
}

func BadMapper(e *storage.Engine) {
	orm.NewMapper[row](e, "custom_meta") // want `orm.NewMapper binds literal physical table "custom_meta"`
}

// Physical names arriving through variables are the sanctioned
// Catalog.Physical hand-off: no literal, no finding.
func OKVariableAccess(e *storage.Engine, physical string) {
	_ = e.HasTable(physical)
}

// Platform-owned tables may opt out with a justification.
func OKSuppressed(e *storage.Engine) {
	_ = e.HasTable("platform_meta") //odbis:ignore tenantisolation -- fixture: platform-owned table
}
