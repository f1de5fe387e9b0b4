package analysis

import (
	"go/types"
	"strings"
)

// Request-path entry points shared by the tier-3 performance analyzers
// (hotalloc, obshandle). The ODBIS cost model multiplies every wasted
// cycle per-tenant per-request (the paper's on-demand promise), so
// "hot" is defined as: reachable over the static call graph from
//
//   - an HTTP handler boundary (internal/server function taking
//     *net/http.Request — same definition ctxtenant uses),
//   - a statement entry on the SQL engine (in the sql group: an exported
//     Query* method or Prepare on a type named DB, or an exported Query*
//     method on a type named Stmt),
//   - an OLAP read entry (olap group: Build, or any exported method on
//     a type named Cube).
//
// Detection is group+name based rather than import-path based so the
// fixture trees under testdata/src/ can impersonate the layers exactly
// like they do for layercheck and ctxtenant.

// hotReach records why a function is on the request path: the entry
// point that reaches it and one witness call chain.
type hotReach struct {
	entry string
	chain []string
}

// isRequestEntry classifies fi as a request-path entry point, returning
// its display name.
func isRequestEntry(fi *FuncInfo) (string, bool) {
	if isHandlerBoundary(fi) {
		return "handler " + shortFuncName(fi.Obj), true
	}
	group := groupOf(fi.Pkg.Path)
	name := fi.Obj.Name()
	exported := fi.Obj.Exported()
	recvName := ""
	if sig, ok := fi.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			recvName = n.Obj().Name()
		}
	}
	switch group {
	case "sql":
		if exported && (strings.HasPrefix(name, "Query") && (recvName == "DB" || recvName == "Stmt") ||
			name == "Prepare" && recvName == "DB") {
			return shortFuncName(fi.Obj), true
		}
	case "olap":
		if exported && (name == "Build" || recvName == "Cube") {
			return shortFuncName(fi.Obj), true
		}
	}
	return "", false
}

// requestReachable computes the set of functions reachable from any
// request-path entry point, each with the entry that reaches it and one
// witness chain (BFS order, so chains are shortest-first).
func requestReachable(prog *Program) map[*types.Func]hotReach {
	reached := map[*types.Func]hotReach{}
	var queue []*types.Func
	for _, fi := range prog.Funcs() {
		if entry, ok := isRequestEntry(fi); ok {
			reached[fi.Obj] = hotReach{entry: entry}
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
			reached[cs.Callee] = hotReach{entry: from.entry, chain: chain}
			queue = append(queue, cs.Callee)
		}
	}
	return reached
}

// witnessSuffix renders "reachable from X via a → b" for diagnostics.
func (r hotReach) witnessSuffix() string {
	s := "reachable from " + r.entry
	if len(r.chain) > 0 {
		s += " via " + strings.Join(capChain(r.chain, 4), " → ")
	}
	return s
}
