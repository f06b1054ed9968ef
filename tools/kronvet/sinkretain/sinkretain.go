// Package sinkretain defines an analyzer enforcing the pipeline.Func batch
// ownership contract: a Func callback owns its batch slice only until the
// call returns, because the sink reuses the slice for the next run it
// expands.
//
// The analyzer inspects every function — declared or literal — with the
// callback shape func(int, []Edge) error and reports places where the batch
// slice (or a pointer into its backing array) escapes the call: assignment
// to a struct field, map/slice element, package-level or captured variable;
// a channel send; capture by a spawned goroutine; or a non-spread append
// into a retained slice. Element-wise copies such as append(dst, batch...)
// and copy(dst, batch) are recognized as safe, and passing the batch to
// another call (an encoder's WriteEdges, a wrapped callback) is allowed
// because the callee is bound by the same contract.
//
// Runs need no such rule: a pipeline.Run only points at the generator's
// immutable block, so a sink may keep one past WriteRun (Async does).
package sinkretain

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Analyzer is the sinkretain analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "sinkretain",
	Doc:      "report Func callbacks that retain the batch slice beyond the call (the sink reuses it; retained edges must be copied)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var ftype *ast.FuncType
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body, ftype = fn.Body, fn.Type
		case *ast.FuncLit:
			body, ftype = fn.Body, fn.Type
		}
		// Require the house Edge type name so unrelated func(int, []byte)
		// error shapes are not flagged.
		if body == nil || !emitShape(pass, ftype) {
			return
		}
		if batch := paramObj(pass, ftype, 1); batch != nil {
			checkFunc(pass, n, body, batch)
		}
	})
	return nil, nil
}

// emitShape reports whether ftype is (int, []Edge) error, Edge being a named
// type called Edge.
func emitShape(pass *analysis.Pass, ftype *ast.FuncType) bool {
	tv, ok := pass.TypesInfo.Types[ftype]
	if !ok {
		// FuncDecl types are recorded on the name, not the FuncType; rebuild
		// from the parameter ASTs.
		return emitShapeAST(pass, ftype)
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return false
	}
	return emitSig(sig)
}

func emitShapeAST(pass *analysis.Pass, ftype *ast.FuncType) bool {
	var ptypes []types.Type
	for _, f := range ftype.Params.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		if t == nil {
			return false
		}
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			ptypes = append(ptypes, t)
		}
	}
	if len(ptypes) != 2 {
		return false
	}
	if b, ok := ptypes[0].Underlying().(*types.Basic); !ok || b.Kind() != types.Int {
		return false
	}
	sl, ok := ptypes[1].Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if !edgeNamed(sl.Elem()) {
		return false
	}
	if ftype.Results == nil || len(ftype.Results.List) != 1 {
		return false
	}
	rt := pass.TypesInfo.TypeOf(ftype.Results.List[0].Type)
	return rt != nil && types.Identical(rt, types.Universe.Lookup("error").Type())
}

func emitSig(sig *types.Signature) bool {
	if sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	if b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Int {
		return false
	}
	sl, ok := sig.Params().At(1).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if !edgeNamed(sl.Elem()) {
		return false
	}
	return types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type())
}

func edgeNamed(t types.Type) bool { return namedAs(t, "Edge") }

// namedAs reports whether t (unwrapping aliases) is a named type with the
// given name.
func namedAs(t types.Type, name string) bool {
	for {
		switch tt := t.(type) {
		case *types.Named:
			return tt.Obj().Name() == name
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return false
		}
	}
}

// paramObj returns the object of the idx'th (flattened) parameter.
func paramObj(pass *analysis.Pass, ftype *ast.FuncType, idx int) types.Object {
	var names []*ast.Ident
	for _, f := range ftype.Params.List {
		if len(f.Names) == 0 {
			names = append(names, nil)
			continue
		}
		names = append(names, f.Names...)
	}
	if idx >= len(names) || names[idx] == nil || names[idx].Name == "_" {
		return nil
	}
	return pass.TypesInfo.Defs[names[idx]]
}

// report wording: what escapes, what the sink does afterwards, the fix.
const (
	escapes     = "batch escapes the Func callback"
	consequence = "the sink reuses the slice after the call returns"
	fix         = "copy the edges (append(dst, batch...))"
)

// checkFunc flags escaping uses of the batch parameter (and its local
// aliases) within one target function.
func checkFunc(pass *analysis.Pass, root ast.Node, body *ast.BlockStmt, batch types.Object) {
	tracked := map[types.Object]bool{batch: true}
	// Fixpoint over simple aliases: x := batch, x := batch[i:j], var x = batch.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i := range st.Rhs {
					if !aliasesTracked(pass, tracked, st.Rhs[i]) {
						continue
					}
					if addAlias(pass, tracked, st.Lhs[i], root) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) != len(st.Values) {
					return true
				}
				for i := range st.Values {
					if !aliasesTracked(pass, tracked, st.Values[i]) {
						continue
					}
					if addAlias(pass, tracked, st.Names[i], root) {
						changed = true
					}
				}
			}
			return true
		})
	}

	// Walk the body with an explicit ancestor stack and judge every use of a
	// tracked object.
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !tracked[obj] {
			return true
		}
		// Any use inside a go'ed closure races with the producer's reuse,
		// even an otherwise-safe copy: the copy itself runs after the write
		// call returned. Check before the expression walk, which would
		// otherwise stop at a safe-looking append(dst, batch...).
		for k := len(stack) - 2; k >= 2; k-- {
			fl, ok := stack[k].(*ast.FuncLit)
			if !ok {
				continue
			}
			if call, ok := stack[k-1].(*ast.CallExpr); ok && call.Fun == fl {
				if _, ok := stack[k-2].(*ast.GoStmt); ok {
					pass.Reportf(id.Pos(), "%s: captured by a goroutine; %s — %s instead", escapes, consequence, fix)
					return true
				}
			}
		}
		if how, bad := verdict(pass, stack, root); bad {
			pass.Reportf(id.Pos(), "%s: %s; %s — %s instead", escapes, how, consequence, fix)
		}
		return true
	})
}

func aliasesTracked(pass *analysis.Pass, tracked map[types.Object]bool, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return aliasesTracked(pass, tracked, e.X)
	case *ast.SliceExpr:
		return aliasesTracked(pass, tracked, e.X)
	case *ast.Ident:
		return tracked[pass.TypesInfo.Uses[e]]
	}
	return false
}

func addAlias(pass *analysis.Pass, tracked map[types.Object]bool, lhs ast.Expr, root ast.Node) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || tracked[obj] || !within(root, obj.Pos()) {
		return false
	}
	tracked[obj] = true
	return true
}

// verdict walks upward from the tracked identifier (stack's last element)
// through its ancestors and decides whether the batch-aliasing value escapes
// the target function.
func verdict(pass *analysis.Pass, stack []ast.Node, root ast.Node) (string, bool) {
	cur := stack[len(stack)-1].(ast.Expr)
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.SliceExpr:
			if p.X != cur {
				return "", false // index position: a plain int read
			}
			cur = p // re-slice shares the backing array
		case *ast.IndexExpr:
			if p.X != cur {
				return "", false
			}
			// batch[i] is an element copy; only &batch[i] aliases the buffer,
			// and that is handled when the walk reaches the UnaryExpr.
			if i > 0 {
				if u, ok := stack[i-1].(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == p {
					cur = p
					continue
				}
			}
			return "", false
		case *ast.UnaryExpr:
			if p.Op == token.AND && p.X == cur {
				cur = p // pointer into the batch's backing array
				continue
			}
			return "", false
		case *ast.CallExpr:
			if p.Fun == cur {
				// Immediately invoked closure capturing batch: synchronous
				// unless spawned.
				if i > 0 {
					if _, ok := stack[i-1].(*ast.GoStmt); ok {
						return "captured by a goroutine", true
					}
				}
				return "", false
			}
			switch {
			case isBuiltin(pass, p, "append"):
				if p.Ellipsis.IsValid() && len(p.Args) > 0 && p.Args[len(p.Args)-1] == cur {
					return "", false // append(dst, batch...) copies the elements
				}
				cur = p // the result slice retains the alias as an element
			case isBuiltin(pass, p, "len"), isBuiltin(pass, p, "cap"), isBuiltin(pass, p, "copy"), isBuiltin(pass, p, "clear"):
				return "", false
			case isConversion(pass, p):
				cur = p // a conversion preserves the backing array
			default:
				if i > 0 {
					if _, ok := stack[i-1].(*ast.GoStmt); ok {
						return "passed to a spawned goroutine", true
					}
				}
				// Delegation (Tee, Instrument, a wrapped sink): the callee is
				// bound by the same ownership contract.
				return "", false
			}
		case *ast.FuncLit:
			cur = p // a closure capturing batch; judge by where the closure goes
		case *ast.KeyValueExpr:
			cur = p
		case *ast.CompositeLit:
			cur = p // a composite literal holding the alias
		case *ast.ReturnStmt, *ast.BlockStmt, *ast.ExprStmt:
			// Value flows statement-wise (a nested closure returning the
			// alias); keep walking toward the enclosing literal.
		case *ast.SendStmt:
			if p.Value == cur {
				return "sent on a channel", true
			}
			return "", false
		case *ast.GoStmt:
			return "captured by a goroutine", true
		case *ast.AssignStmt:
			idx := -1
			for k, r := range p.Rhs {
				if r == cur {
					idx = k
				}
			}
			if idx < 0 || idx >= len(p.Lhs) {
				return "", false
			}
			return lhsEscape(pass, p.Lhs[idx], root)
		case *ast.ValueSpec:
			idx := -1
			for k, v := range p.Values {
				if v == cur {
					idx = k
				}
			}
			if idx < 0 || idx >= len(p.Names) {
				return "", false
			}
			return "", false // var x = batch declares a local; alias tracking covers it
		default:
			return "", false
		}
	}
	return "", false
}

// lhsEscape judges an assignment target holding a batch alias.
func lhsEscape(pass *analysis.Pass, lhs ast.Expr, root ast.Node) (string, bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return "", false
		}
		obj := pass.TypesInfo.ObjectOf(l)
		if obj == nil || within(root, obj.Pos()) {
			return "", false // local alias; tracked separately
		}
		return fmt.Sprintf("stored in %s declared outside the function", l.Name), true
	case *ast.SelectorExpr:
		return fmt.Sprintf("stored in %s", types.ExprString(l)), true
	case *ast.IndexExpr:
		return fmt.Sprintf("stored in element %s", types.ExprString(l)), true
	case *ast.StarExpr:
		return fmt.Sprintf("stored through pointer %s", types.ExprString(l)), true
	}
	return "", false
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

func isConversion(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType()
}

func within(root ast.Node, pos token.Pos) bool {
	return root.Pos() <= pos && pos < root.End()
}
