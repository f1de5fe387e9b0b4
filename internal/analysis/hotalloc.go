package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// HotAlloc targets the perf arc's headline number: the SQL layer burns
// ~8k allocs/op, and in the paper's on-demand model every allocation is
// multiplied per-tenant per-request. The analyzer combines the PR-2
// call graph with loop structure: a function is "hot" when it is
// reachable from a request-path entry point (HTTP handlers, sql.DB
// Query*/Prepare and sql.Stmt Query*, olap.Build / Cube methods — see
// entrypoints.go), and inside hot functions' loops it flags the
// allocation patterns that the benchmarks show dominate:
//
//   - fmt.Sprintf / Sprint / Sprintln — one string + interface boxing
//     per iteration (Errorf is exempt: error paths are cold by intent);
//   - string concatenation building a value per iteration;
//   - append to a slice declared without capacity when the loop ranges
//     over something with a knowable length — carries a SuggestedFix
//     preallocating with make(T, 0, len(src));
//   - loop-invariant map/slice composite literals — same value rebuilt
//     every iteration;
//   - loop-invariant closures — a fresh closure allocation per
//     iteration capturing nothing that changes.
//
// Noise control: statements on cold paths inside the loop (branches
// that end in return or panic — error handling) are skipped, and
// composite-literal/closure findings require loop-invariance (if the
// value genuinely depends on the iteration variable, rebuilding it is
// the point, not a bug). Benchmarks (bench group) measure allocation
// and are exempt.
var HotAlloc = &Analyzer{
	Name:       "hotalloc",
	Doc:        "flag per-iteration allocations in loops of request-reachable functions, with preallocation fixes",
	RunProgram: runHotAlloc,
}

// hotAllocExemptGroups either measure allocations on purpose (bench) or
// are the test harness.
var hotAllocExemptGroups = map[string]bool{
	"bench": true,
}

func runHotAlloc(pass *ProgramPass) {
	reach := requestReachable(pass.Prog)
	for _, fi := range pass.Prog.Funcs() {
		r, ok := reach[fi.Obj]
		if !ok || hotAllocExemptGroups[groupOf(fi.Pkg.Path)] {
			continue
		}
		h := &hotScanner{
			pass:   pass,
			fi:     fi,
			suffix: r.witnessSuffix(),
			info:   fi.Pkg.Info,
			seen:   map[string]bool{},
		}
		h.walkStmts(fi.Decl.Body.List, nil, false)
	}
}

// hotScanner walks one hot function tracking the innermost enclosing
// loop and whether the current statement list is on a cold path.
type hotScanner struct {
	pass   *ProgramPass
	fi     *FuncInfo
	suffix string
	info   *types.Info
	seen   map[string]bool // dedupe key: kind + position
}

func (h *hotScanner) report(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	key := fmt.Sprintf("%d", pos)
	if h.seen[key] {
		return
	}
	h.seen[key] = true
	h.pass.ReportFix(pos, fix, format+" (%s)", append(args, h.suffix)...)
}

// walkStmts processes a statement list. loop is the innermost enclosing
// loop statement (nil outside loops); cold is true when this list runs
// at most once per loop entry (it ends the iteration space via
// return/panic, i.e. error handling).
func (h *hotScanner) walkStmts(stmts []ast.Stmt, loop ast.Stmt, cold bool) {
	for _, s := range stmts {
		h.walkStmt(s, loop, cold)
	}
}

func (h *hotScanner) walkStmt(s ast.Stmt, loop ast.Stmt, cold bool) {
	switch s := s.(type) {
	case *ast.ForStmt:
		// Init runs once per loop entry: judge it against the OUTER loop.
		if s.Init != nil {
			h.walkStmt(s.Init, loop, cold)
		}
		// Cond and Post run once per iteration of THIS loop.
		if s.Cond != nil {
			h.scanExpr(s.Cond, s, false)
		}
		if s.Post != nil {
			h.walkStmt(s.Post, s, false)
		}
		h.walkStmts(s.Body.List, s, false)

	case *ast.RangeStmt:
		// X is evaluated once per loop entry.
		h.scanExpr(s.X, loop, cold)
		h.walkStmts(s.Body.List, s, false)

	case *ast.IfStmt:
		if s.Init != nil {
			h.walkStmt(s.Init, loop, cold)
		}
		h.scanExpr(s.Cond, loop, cold)
		h.walkStmts(s.Body.List, loop, cold || terminatesList(s.Body.List, true))
		switch els := s.Else.(type) {
		case *ast.BlockStmt:
			h.walkStmts(els.List, loop, cold || terminatesList(els.List, true))
		case *ast.IfStmt:
			h.walkStmt(els, loop, cold)
		}

	case *ast.BlockStmt:
		h.walkStmts(s.List, loop, cold)

	case *ast.LabeledStmt:
		h.walkStmt(s.Stmt, loop, cold)

	case *ast.SwitchStmt:
		if s.Init != nil {
			h.walkStmt(s.Init, loop, cold)
		}
		if s.Tag != nil {
			h.scanExpr(s.Tag, loop, cold)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h.walkStmts(cc.Body, loop, cold || terminatesList(cc.Body, false))
			}
		}

	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h.walkStmts(cc.Body, loop, cold || terminatesList(cc.Body, false))
			}
		}

	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				h.walkStmts(cc.Body, loop, cold || terminatesList(cc.Body, false))
			}
		}

	case *ast.ReturnStmt:
		// Executes at most once per function call: never hot.

	case *ast.DeferStmt, *ast.GoStmt:
		// Out of scope: the call runs on another schedule. (A defer in a
		// loop has its own cost, but that is a different lint.)

	case *ast.AssignStmt:
		if loop != nil && !cold {
			if h.checkAppendGrowth(s, loop) {
				return
			}
			if h.checkConcatAssign(s) {
				return
			}
		}
		for _, e := range s.Rhs {
			h.scanExpr(e, loop, cold)
		}

	case *ast.ExprStmt:
		h.scanExpr(s.X, loop, cold)

	case *ast.SendStmt:
		h.scanExpr(s.Value, loop, cold)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						h.scanExpr(v, loop, cold)
					}
				}
			}
		}
	}
}

// terminatesList reports whether a statement list ends the current
// iteration space: its last statement is a return, a panic/exit call,
// or (for if-bodies, where it targets the loop) a break. Branches that
// end this way are error/edge paths — cold by design, not hot-loop work.
func terminatesList(stmts []ast.Stmt, allowBreak bool) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return allowBreak && last.Tok == token.BREAK
	case *ast.ExprStmt:
		return terminatingCall(last.X) != ""
	}
	return false
}

// scanExpr flags hot allocations inside one expression (when inside a
// live loop). Function-literal bodies are not descended into: they run
// on their own schedule.
func (h *hotScanner) scanExpr(e ast.Expr, loop ast.Stmt, cold bool) {
	if e == nil || loop == nil || cold {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if h.invariant(n, loop) {
				h.report(n.Pos(), nil,
					"loop-invariant closure allocates on every iteration of this hot loop; hoist it above the loop")
			}
			return false

		case *ast.CompositeLit:
			t := h.info.Types[n].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map, *types.Slice:
				if h.invariant(n, loop) {
					h.report(n.Pos(), nil,
						"loop-invariant composite literal allocates on every iteration of this hot loop; hoist it above the loop")
					return false
				}
			}
			return true

		case *ast.BinaryExpr:
			if n.Op == token.ADD && h.isAllocatingStringExpr(n) {
				h.report(n.Pos(), nil,
					"string concatenation allocates on every iteration of this hot loop; use strings.Builder or a preallocated []byte")
				return false // one finding per concat chain
			}
			return true

		case *ast.CallExpr:
			if name := h.fmtAllocCall(n); name != "" {
				h.report(n.Pos(), nil,
					"fmt.%s allocates (formatting + interface boxing) on every iteration of this hot loop; use strconv or append to a reused buffer", name)
			}
			return true
		}
		return true
	})
}

// isAllocatingStringExpr reports whether e is a non-constant
// string-typed expression (a constant concat folds at compile time).
func (h *hotScanner) isAllocatingStringExpr(e ast.Expr) bool {
	tv, ok := h.info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// fmtAllocCall matches fmt.Sprintf/Sprint/Sprintln. Errorf is exempt
// (error construction marks a cold path even when syntax says
// otherwise), as are the Fprint family (they write, not allocate).
func (h *hotScanner) fmtAllocCall(call *ast.CallExpr) string {
	fn, _ := calleeObj(h.info, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return ""
	}
	switch fn.Name() {
	case "Sprintf", "Sprint", "Sprintln":
		return fn.Name()
	}
	return ""
}

// invariant reports whether every identifier inside n resolves to a
// declaration outside the loop (or inside n itself — parameters and
// locals of a closure are its own business). Such a value is identical
// on every iteration and belongs above the loop.
func (h *hotScanner) invariant(n ast.Node, loop ast.Stmt) bool {
	inv := true
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return inv
		}
		obj := objOf(h.info, id)
		if obj == nil || !obj.Pos().IsValid() {
			return inv // builtins, package names, field names
		}
		if obj.Pos() >= n.Pos() && obj.Pos() <= n.End() {
			return inv // declared inside the literal itself
		}
		if obj.Pos() >= loop.Pos() && obj.Pos() <= loop.End() {
			inv = false
		}
		return inv
	})
	return inv
}

// checkConcatAssign flags `s += expr` on strings inside a hot loop.
func (h *hotScanner) checkConcatAssign(s *ast.AssignStmt) bool {
	if s.Tok != token.ADD_ASSIGN || len(s.Lhs) != 1 {
		return false
	}
	if !h.isAllocatingStringExpr(s.Lhs[0]) {
		return false
	}
	h.report(s.Pos(), nil,
		"string += in this hot loop reallocates and copies the accumulator each iteration; use strings.Builder")
	return true
}

// checkAppendGrowth recognizes x = append(x, ...) in a hot loop where x
// was declared without capacity. When the loop ranges over a simple
// expression with a length, the finding carries a SuggestedFix
// rewriting the declaration to make(T, 0, len(src)).
func (h *hotScanner) checkAppendGrowth(s *ast.AssignStmt, loop ast.Stmt) bool {
	if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := h.info.Uses[ast.Unparen(call.Fun).(*ast.Ident)].(*types.Builtin); !isBuiltin {
		return false
	}
	if len(call.Args) < 2 {
		return false
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || objOf(h.info, arg0) != objOf(h.info, lhs) {
		return false
	}
	obj := objOf(h.info, lhs)
	if obj == nil {
		return false
	}
	decl := h.findBareDecl(obj, loop)
	if decl == nil {
		return false // declared with capacity, a parameter, or not visible: fine
	}
	sliceT, ok := obj.Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	fix := h.preallocFix(decl, sliceT, loop, lhs.Name)
	msg := "append to %s in this hot loop grows the backing array geometrically — reallocation and copying on the request path"
	if fix != nil {
		h.report(s.Pos(), fix, msg+"; preallocate capacity", lhs.Name)
	} else {
		h.report(s.Pos(), nil, msg+"; preallocate with make(%s, 0, n) for a known bound n", lhs.Name, typeString(sliceT, h.fi.Pkg.Types))
	}
	return true
}

// bareDecl is a capacity-less slice declaration that a fix can rewrite.
type bareDecl struct {
	declStmt *ast.DeclStmt     // `var x []T` form (whole statement replaced)
	emptyLit *ast.CompositeLit // `x := []T{}` form (literal replaced)
	makeZero ast.Expr          // the `0` in `x := make([]T, 0)` (capacity appended)
}

// findBareDecl locates obj's declaration above the loop when it has one
// of the three no-capacity shapes; any other declaration (make with
// capacity, assignment from a call, parameter) returns nil.
func (h *hotScanner) findBareDecl(obj types.Object, loop ast.Stmt) *bareDecl {
	var found *bareDecl
	ast.Inspect(h.fi.Decl.Body, func(n ast.Node) bool {
		if found != nil || n == nil {
			return false
		}
		if n.Pos() >= loop.Pos() {
			return false // only declarations above the loop qualify
		}
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR || len(gd.Specs) != 1 {
				return true
			}
			vs, ok := gd.Specs[0].(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || len(vs.Values) != 0 || vs.Type == nil {
				return true
			}
			if h.info.Defs[vs.Names[0]] == obj {
				found = &bareDecl{declStmt: n}
				return false
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok || h.info.Defs[id] != obj {
				return true
			}
			switch rhs := ast.Unparen(n.Rhs[0]).(type) {
			case *ast.CompositeLit:
				if len(rhs.Elts) == 0 {
					found = &bareDecl{emptyLit: rhs}
				}
			case *ast.CallExpr:
				if fun, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && fun.Name == "make" && len(rhs.Args) == 2 {
					if lit, ok := ast.Unparen(rhs.Args[1]).(*ast.BasicLit); ok && lit.Value == "0" {
						found = &bareDecl{makeZero: rhs.Args[1]}
					}
				}
			}
			return false
		}
		return true
	})
	return found
}

// preallocFix builds the declaration rewrite when the enclosing loop is
// a range over a pure expression (identifier or selector chain) whose
// length bounds the appends.
func (h *hotScanner) preallocFix(decl *bareDecl, sliceT *types.Slice, loop ast.Stmt, name string) *SuggestedFix {
	rng, ok := loop.(*ast.RangeStmt)
	if !ok {
		return nil
	}
	src := ast.Unparen(rng.X)
	switch src.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return nil // ranging over a call or literal: len(src) would re-evaluate it
	}
	t := h.info.Types[rng.X].Type
	if t == nil {
		return nil
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map, *types.Pointer:
	default:
		if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
			return nil
		}
	}
	// The rewritten declaration sits above the loop; len(src) is only
	// legal there if src's root identifier is already in scope.
	declPos := loop.Pos()
	switch {
	case decl.declStmt != nil:
		declPos = decl.declStmt.Pos()
	case decl.emptyLit != nil:
		declPos = decl.emptyLit.Pos()
	case decl.makeZero != nil:
		declPos = decl.makeZero.Pos()
	}
	root := src
	for {
		sel, ok := ast.Unparen(root).(*ast.SelectorExpr)
		if !ok {
			break
		}
		root = sel.X
	}
	if id, ok := ast.Unparen(root).(*ast.Ident); ok {
		if obj := objOf(h.info, id); obj == nil || (obj.Pos().IsValid() && obj.Pos() >= declPos && obj.Parent() != h.fi.Pkg.Types.Scope()) {
			return nil
		}
	} else {
		return nil
	}
	srcText := h.exprText(src)
	if srcText == "" {
		return nil
	}
	tText := typeString(sliceT, h.fi.Pkg.Types)
	fset := h.pass.Fset()
	mk := fmt.Sprintf("make(%s, 0, len(%s))", tText, srcText)
	var edit TextEdit
	switch {
	case decl.declStmt != nil:
		edit = editAt(fset, decl.declStmt.Pos(), decl.declStmt.End(), fmt.Sprintf("%s := %s", name, mk))
	case decl.emptyLit != nil:
		edit = editAt(fset, decl.emptyLit.Pos(), decl.emptyLit.End(), mk)
	case decl.makeZero != nil:
		edit = editAt(fset, decl.makeZero.End(), decl.makeZero.End(), fmt.Sprintf(", len(%s)", srcText))
	default:
		return nil
	}
	return &SuggestedFix{
		Message: fmt.Sprintf("preallocate %s with %s", name, mk),
		Edits:   []TextEdit{edit},
	}
}

// exprText renders a source expression.
func (h *hotScanner) exprText(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, h.pass.Fset(), e); err != nil {
		return ""
	}
	return buf.String()
}

// typeString renders a type as it reads inside pkg: same-package names
// are unqualified (qualifying them would not compile there), imported
// names keep their package name.
func typeString(t types.Type, pkg *types.Package) string {
	return types.TypeString(t, func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	})
}
