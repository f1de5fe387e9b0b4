package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxTenant is the interprocedural upgrade of tenantisolation: where
// that check flags literal physical-table access one call at a time,
// this one proves the paper's §2 identity contract across the call
// graph — the tenant identity AND the request lifetime established at
// the internal/server boundary must flow, via an explicit
// context.Context, into every internal/storage / internal/sql data
// access reachable from a handler.
//
// Concretely: starting from every HTTP handler (a server-group function
// with a *net/http.Request parameter), the analyzer walks the static
// call graph and enforces two rules on reached functions (rule 1
// outside the namespace owners tenant, storage, sql and bench; rule 2
// outside storage and bench):
//
//  1. Any reached function that directly invokes a data-access method
//     on storage.Engine, storage.Tx, or sql.DB must take a
//     context.Context (receiver or parameter, direct type — a struct
//     that merely holds one is not enough, because cancellation cannot
//     be observed through it without an accessor on the path).
//  2. Any reached function below the server layer that has no
//     context.Context of its own must not manufacture one with
//     context.Background() or context.TODO(): a fresh root context
//     severs the request's cancellation chain exactly where the
//     signature should have threaded it.
//
// Substrates that are handed pre-resolved physical names via
// Catalog.Physical suppress a finding with a justification:
//
//	//odbis:ignore ctxtenant -- sink writes physical tables resolved by Catalog.Physical upstream
//
// The call graph is static (see Program), so paths through interfaces
// or stored function values are invisible; this analyzer understates
// reachability rather than inventing paths.
var CtxTenant = &Analyzer{
	Name:       "ctxtenant",
	Doc:        "prove request context and tenant identity flow from every handler into all reachable storage/sql accesses",
	RunProgram: runCtxTenant,
}

// ctxTenantExemptGroups own the physical namespace (or measure it):
// inside them, data access without a tenant value is the implementation
// of the rewrite itself, not a bypass. Rule 1 skips them.
var ctxTenantExemptGroups = map[string]bool{
	"tenant":  true,
	"storage": true,
	"sql":     true,
	"bench":   true,
}

// ctxRootAllowedGroups may mint a root context below the server layer;
// rule 2 skips them. storage keeps Begin/View/Update as Background()
// delegations because storage/orm — and through it security and
// tenant.Registry — has no context to pass; bench is the harness and
// owns its roots. internal/sql has no ctx-less entry point left, so it
// is held to the rule like every other layer.
var ctxRootAllowedGroups = map[string]bool{
	"storage": true,
	"bench":   true,
}

func runCtxTenant(pass *ProgramPass) {
	prog := pass.Prog
	// Reachability from handlers, with one witness chain per function.
	type reach struct {
		handler string
		chain   []string
	}
	reached := map[*types.Func]reach{}
	var queue []*types.Func
	for _, fi := range prog.Funcs() {
		if isHandlerBoundary(fi) {
			name := shortFuncName(fi.Obj)
			reached[fi.Obj] = reach{handler: name}
			queue = append(queue, fi.Obj)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		from := reached[fn]
		for _, cs := range prog.CallsFrom(fn) {
			if _, seen := reached[cs.Callee]; seen {
				continue
			}
			if prog.DeclOf(cs.Callee) == nil {
				continue
			}
			chain := append(append([]string(nil), from.chain...), shortFuncName(cs.Callee))
			reached[cs.Callee] = reach{handler: from.handler, chain: chain}
			queue = append(queue, cs.Callee)
		}
	}
	for _, fi := range prog.Funcs() {
		r, ok := reached[fi.Obj]
		if !ok {
			continue
		}
		group := groupOf(fi.Pkg.Path)
		ownsNamespace, mayRoot := ctxTenantExemptGroups[group], ctxRootAllowedGroups[group]
		if ownsNamespace && mayRoot {
			continue
		}
		hasCtx := hasDirectContextParam(fi.Obj)
		isServer := group == "server"
		info := fi.Pkg.Info
		via := ""
		if len(r.chain) > 0 {
			via = " via " + strings.Join(capChain(r.chain, 5), " → ")
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Rule 2: a reached function below the server layer with no
			// context of its own must not mint a root context.
			if !isServer && !hasCtx && !mayRoot {
				if root := rootContextCall(info, call); root != "" {
					pass.Reportf(call.Pos(),
						"%s manufactures %s below the server layer (reachable from handler %s%s); a fresh root context severs the request's cancellation chain — add a context.Context parameter and derive from it",
						shortFuncName(fi.Obj), root, r.handler, via)
					return true
				}
			}
			// Rule 1: direct data access needs an explicit context.
			if hasCtx || ownsNamespace {
				return true
			}
			target := dataAccessTarget(info, call)
			if target == "" {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s calls %s with no context.Context on its signature (reachable from handler %s%s); neither cancellation nor tenant identity can reach this access — thread ctx through this path",
				shortFuncName(fi.Obj), target, r.handler, via)
			return true
		})
	}
}

// capChain elides the middle of long witness chains.
func capChain(chain []string, max int) []string {
	if len(chain) <= max {
		return chain
	}
	head := chain[:max-1]
	return append(append([]string(nil), head...), "…", chain[len(chain)-1])
}

// isHandlerBoundary reports whether fi is where tenant identity enters:
// a server-group function taking *net/http.Request.
func isHandlerBoundary(fi *FuncInfo) bool {
	if groupOf(fi.Pkg.Path) != "server" {
		return false
	}
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isNamed(sig.Params().At(i).Type(), "net/http", "Request") {
			return true
		}
	}
	return false
}

// dataAccessTarget classifies a call as tenant-data access and names it,
// or returns "".
func dataAccessTarget(info *types.Info, call *ast.CallExpr) string {
	recv := methodReceiverType(info, call)
	if recv == nil {
		return ""
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	name := sel.Sel.Name
	const storagePath = "github.com/odbis/odbis/internal/storage"
	const sqlPath = "github.com/odbis/odbis/internal/sql"
	switch {
	case isNamed(recv, storagePath, "Engine"):
		return "storage.Engine." + name
	case isNamed(recv, storagePath, "Tx"):
		return "storage.Tx." + name
	case isNamed(recv, sqlPath, "DB"):
		return "sql.DB." + name
	}
	return ""
}

// rootContextCall reports whether call is context.Background() or
// context.TODO(), naming it, or returns "".
func rootContextCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return "context." + fn.Name() + "()"
	}
	return ""
}

// hasDirectContextParam reports whether fn's receiver or any parameter
// is a context.Context itself. A struct that merely embeds one does not
// count: the request lifetime must be observable at the signature for
// cancellation to propagate through this function.
func hasDirectContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for _, v := range receiverAndParams(sig) {
		if n := namedType(v.Type()); n != nil && n.Obj().Pkg() != nil &&
			n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context" {
			return true
		}
	}
	return false
}
