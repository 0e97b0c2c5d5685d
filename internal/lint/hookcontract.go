package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"sais/internal/lint/analysis"
)

// HookContract guards the nil-contract hook fields: optional
// function-valued fields (netsim.NIC's service-scale hook, pfs.Server's
// CPU-scale hook, cpu.Core's span hook, cluster.Config.Progress) whose
// nil state means "feature off" and whose classic code path must stay
// byte-identical. Annotate the field //saisvet:nilhook; every call
// through it must then be dominated by a nil guard:
//
//	if c.hook != nil { c.hook(...) }          // direct guard
//	if c.hook == nil { return }               // early return
//	... c.hook(...)                           // guarded from here on
//
// Both forms compose with && chains and with closures declared inside
// the guarded region (a cost closure built under the guard and called
// later). The annotation travels
// as a fact, so a dependent package calling an exported hook field
// unguarded is flagged too. An unguarded call through a nil hook is a
// panic on the classic path — precisely the configuration every
// regression gate runs. Suppress a reviewed site with //lint:nilhook.
var HookContract = &analysis.Analyzer{
	Name: "hookcontract",
	Doc: "calls through //saisvet:nilhook fields must be nil-guarded " +
		"(suppress: //lint:nilhook)",
	Directives: []string{"nilhook"},
	Run:        runHookContract,
}

func runHookContract(pass *analysis.Pass) (any, error) {
	dirs := pass.Directives()

	// Collect this package's annotated hook fields and export them.
	hooks := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if tn == nil {
					continue
				}
				for _, field := range st.Fields.List {
					if _, ok := annotation([]*ast.CommentGroup{field.Doc, field.Comment}, "nilhook"); !ok {
						continue
					}
					for _, name := range field.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							hooks[v] = true
							if pass.Facts.HookFields == nil {
								pass.Facts.HookFields = make(map[string]string)
							}
							pass.Facts.HookFields[qualifiedField(tn, name.Name)] = "nilhook"
						}
					}
				}
			}
		}
	}

	// isHookField resolves a selector to an annotated hook field var,
	// locally or through imported facts.
	isHookField := func(sel *ast.SelectorExpr) (*types.Var, bool) {
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return nil, false
		}
		v, _ := selection.Obj().(*types.Var)
		if v == nil {
			return nil, false
		}
		if hooks[v] {
			return v, true
		}
		owner := namedOwner(selection.Recv())
		if owner == nil {
			return nil, false
		}
		if kind, ok := pass.DepHookField(qualifiedField(owner.Obj(), v.Name())); ok && kind == "nilhook" {
			return v, true
		}
		return nil, false
	}

	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}

			// guarded holds [start, end) position ranges within which a
			// given hook field is known non-nil: the body of an
			// `if x.hook != nil` (possibly under &&), and the remainder
			// of a block after an `if x.hook == nil { ...terminating }`.
			type guardRange struct {
				field      *types.Var
				start, end token.Pos
			}
			var guarded []guardRange

			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					for _, v := range nilCheckedHooks(pass, isHookField, n.Cond, token.NEQ) {
						guarded = append(guarded, guardRange{field: v, start: n.Body.Pos(), end: n.Body.End()})
					}
				case *ast.BlockStmt:
					for _, stmt := range n.List {
						ifs, ok := stmt.(*ast.IfStmt)
						if !ok || ifs.Else != nil || !terminatesFlow(ifs.Body) {
							continue
						}
						for _, v := range nilCheckedHooks(pass, isHookField, ifs.Cond, token.EQL) {
							guarded = append(guarded, guardRange{field: v, start: ifs.End(), end: n.End()})
						}
					}
				}
				return true
			})

			isGuarded := func(v *types.Var, pos token.Pos) bool {
				for _, g := range guarded {
					if g.field == v && g.start <= pos && pos < g.end {
						return true
					}
				}
				return false
			}

			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				v, ok := isHookField(sel)
				if !ok || isGuarded(v, call.Pos()) {
					return true
				}
				if !dirs.Suppressed(call.Pos(), "nilhook") {
					pass.Reportf(call.Pos(), "call through nil-able hook %s without a dominating nil guard: a nil hook means the feature is off, and this call panics on the classic path; wrap it in `if %s != nil { ... }` (suppress a reviewed site with //lint:nilhook)",
						types.ExprString(sel), types.ExprString(sel))
				}
				return true
			})
		}
	}
	return nil, nil
}

// nilCheckedHooks extracts the hook fields compared against nil with
// operator op in cond. For op == NEQ it looks through && conjunctions
// (every conjunct must hold for the body to run). For op == EQL only a
// bare `x.hook == nil` qualifies: `a == nil || b` can enter the
// terminating body with a non-nil, so a disjunction proves nothing
// about the code after it.
func nilCheckedHooks(pass *analysis.Pass, isHookField func(*ast.SelectorExpr) (*types.Var, bool), cond ast.Expr, op token.Token) []*types.Var {
	var out []*types.Var
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			if e.Op == token.LAND && op == token.NEQ {
				visit(e.X)
				visit(e.Y)
				return
			}
			if e.Op != op {
				return
			}
			for _, pair := range [2][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
				sel, ok := ast.Unparen(pair[0]).(*ast.SelectorExpr)
				if !ok || !isNilIdent(pass, pair[1]) {
					continue
				}
				if v, ok := isHookField(sel); ok {
					out = append(out, v)
				}
			}
		}
	}
	visit(cond)
	return out
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// terminatesFlow reports whether a block's last statement unconditionally
// leaves the enclosing scope: return, panic, continue, break, or goto.
func terminatesFlow(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
