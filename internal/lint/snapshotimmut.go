package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerSnapshotImmut enforces the immutability of published
// stream.Snapshot values.
var AnalyzerSnapshotImmut = &Analyzer{
	Name: "snapshotimmut",
	Doc: `snapshotimmut: memory reachable from a stream.Snapshot is never written.

The event loop publishes *stream.Snapshot through an atomic pointer and
readers dereference it lock-free, with no happens-before edge beyond
the publish. Snapshots also share memory with each other and with the
manager: a *stream.RequestState and the nodes of the ID index stay
shared until their request changes. The only thing that makes that
sound is that nobody writes snapshot memory once it is built — a
contract the race detector can only catch if a chaos run happens to
interleave the write with a read.

This analyzer proves it at vet time, in the stream and server packages.
Snapshot memory is a Snapshot, an ID-index node, and a RequestState
behind a pointer. Any field store, element write, increment, or
copy/append/clear/delete whose base chain reaches snapshot memory — the
value itself, a field of it, or a local alias carrying a reference
(slice, map, pointer) derived from one — is a diagnostic. A struct
value copied out of snapshot memory (a RequestState returned by
Snapshot.Request, a Plan) is the caller's, but its reference fields
still point into shared memory: a write that goes through one of them
is a diagnostic too. Writes laundered through helpers are caught by a
parameter-mutation fact: passing snapshot-reachable memory to a
function that writes through that parameter (at any helper depth)
flags the call. There is no sanctioned writer: the manager builds
snapshot memory only as fresh values (composite literals, or a value
copy whose own fields it sets) and never writes it once reachable.
Rebinding a variable or field (snap = other) stays legal.`,
	Run: runSnapshotImmut,
}

func runSnapshotImmut(pass *Pass) error {
	if !pkgOneOf(pass, "stream", "server") {
		return nil
	}
	g := buildCallGraph(pass)
	mut := computeParamMutators(pass, g)
	for _, n := range g.nodes {
		checkSnapshotImmut(pass, g, n, mut)
	}
	return nil
}

// snapshotTypes names the stream types that are snapshot memory. A true
// entry counts only behind a pointer: a RequestState value is a copy,
// and only its reference fields stay shared (see snapshotValueType).
var snapshotTypes = map[string]bool{"Snapshot": false, "trieNode": false, "RequestState": true}

// streamNamed returns the name of t's named type when it is declared in
// a package whose base is stream (so the testdata mimics behave like the
// real package), and whether t was a pointer to it.
func streamNamed(t types.Type) (name string, ptr bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || pathBase(obj.Pkg().Path()) != "stream" {
		return "", false
	}
	return obj.Name(), ptr
}

// isSnapshotType reports whether a value of type t is snapshot memory.
func isSnapshotType(t types.Type) bool {
	name, ptr := streamNamed(t)
	onlyPtr, ok := snapshotTypes[name]
	return ok && (ptr || !onlyPtr)
}

// snapshotValueType reports whether t is a stream.RequestState value:
// wherever it came from, its reference fields are snapshot memory.
func snapshotValueType(t types.Type) bool {
	name, ptr := streamNamed(t)
	return !ptr && snapshotTypes[name]
}

// taintKind records how a local variable relates to snapshot memory.
type taintKind int

const (
	// taintRef: the variable holds a reference into snapshot memory;
	// any write through it is a write into the snapshot.
	taintRef taintKind = iota + 1
	// taintVal: the variable is a struct value copied out of snapshot
	// memory; only writes that go through one of its reference fields
	// reach the snapshot.
	taintVal
)

func checkSnapshotImmut(pass *Pass, g *callGraph, n *cgNode, mut map[*cgNode]map[int]bool) {
	taint := make(map[types.Object]taintKind)
	report := func(e ast.Expr) {
		pass.Reportf(e.Pos(),
			"write to memory reachable from a stream.Snapshot in %s: published snapshots share memory, are read lock-free and must never be mutated (build a replacement instead)",
			n.decl.Name.Name)
	}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if snapReachable(pass, taint, lhs, true) {
					report(lhs)
				}
			}
			updateTaint(pass, taint, x)
		case *ast.RangeStmt:
			rangeTaint(pass, taint, x)
		case *ast.IncDecStmt:
			if snapReachable(pass, taint, x.X, true) {
				report(x.X)
			}
		case *ast.CallExpr:
			if dst := builtinWriteTarget(pass, x); dst != nil && snapReachable(pass, taint, dst, false) {
				report(dst)
			}
			checkSnapshotEscape(pass, g, n, taint, x, mut)
		}
		return true
	})
}

// builtinWriteTarget returns the operand a builtin call writes into:
// copy's destination, clear's and delete's operand, and append's slice
// (whose spare capacity append fills in place).
func builtinWriteTarget(pass *Pass, call *ast.CallExpr) ast.Expr {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if _, ok := pass.Info.Uses[id].(*types.Builtin); !ok {
		return nil
	}
	switch id.Name {
	case "copy", "clear", "delete", "append":
		return call.Args[0]
	}
	return nil
}

// updateTaint tracks local aliases. A variable assigned a reference
// (slice, map, pointer) derived from snapshot memory is taintRef; one
// assigned a struct value copied out of snapshot memory whose type
// carries references is taintVal; reassigning it to anything else
// clears it. A multi-value call on snapshot memory (rs, ok :=
// snap.Request(id)) taints each result by its type.
func updateTaint(pass *Pass, taint map[types.Object]taintKind, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		if len(as.Rhs) != 1 {
			return
		}
		rhs := ast.Unparen(as.Rhs[0])
		tuple, isTuple := pass.Info.TypeOf(rhs).(*types.Tuple)
		derived := snapReachable(pass, taint, rhs, false)
		for i, lhs := range as.Lhs {
			var t types.Type
			switch {
			case isTuple && i < tuple.Len():
				t = tuple.At(i).Type()
			case i == 0:
				t = pass.Info.TypeOf(rhs) // v, ok := m[k] / x.(T) / <-ch
			}
			setTaint(pass, taint, lhs, kindOf(t, derived))
		}
		return
	}
	for i, lhs := range as.Lhs {
		setTaint(pass, taint, lhs, derivedKind(pass, taint, as.Rhs[i]))
	}
}

// rangeTaint taints the value variable of a range over snapshot memory
// by the element type.
func rangeTaint(pass *Pass, taint map[types.Object]taintKind, rs *ast.RangeStmt) {
	if rs.Value == nil || !snapReachable(pass, taint, rs.X, false) {
		return
	}
	setTaint(pass, taint, rs.Value, kindOf(pass.Info.TypeOf(rs.Value), true))
}

func setTaint(pass *Pass, taint map[types.Object]taintKind, lhs ast.Expr, k taintKind) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pass.Info.Defs[id]
	if obj == nil {
		obj = pass.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if k == 0 {
		delete(taint, obj)
	} else {
		taint[obj] = k
	}
}

// derivedKind classifies what rhs hands its variable: a reference into
// snapshot memory (or the address of snapshot memory), a struct copy of
// snapshot memory that carries references, or neither.
func derivedKind(pass *Pass, taint map[types.Object]taintKind, rhs ast.Expr) taintKind {
	e := ast.Unparen(rhs)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		// The address of snapshot memory, not of a local value copy.
		x := ast.Unparen(u.X)
		if id, ok := x.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && taint[obj] == taintRef {
				return taintRef
			}
		}
		if snapReachable(pass, taint, x, true) {
			return taintRef
		}
		return 0
	}
	return kindOf(pass.Info.TypeOf(e), snapReachable(pass, taint, e, false))
}

// kindOf is the taint a value of type t derived (or not) from snapshot
// memory carries.
func kindOf(t types.Type, derived bool) taintKind {
	if !derived || t == nil {
		return 0
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return taintRef
	}
	if hasRefs(t, 0) {
		return taintVal
	}
	return 0
}

// hasRefs reports whether a value of type t holds a pointer, slice or
// map, directly or in a nested struct or array field.
func hasRefs(t types.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	case *types.Array:
		return hasRefs(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasRefs(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// snapReachable walks expr's selector/index/deref chain (and the
// receivers of method calls on it) toward its root, reporting whether
// it reaches snapshot memory. With write=true at least one step is
// required (rebinding the variable itself is not a write into the
// snapshot), and a struct value copied out of snapshot memory counts
// only when the chain above it went through a pointer, slice or map —
// that is, through one of its shared reference fields. With
// write=false the expression itself counts too.
func snapReachable(pass *Pass, taint map[types.Object]taintKind, expr ast.Expr, write bool) bool {
	e := ast.Unparen(expr)
	indirect := false
	for peels := 0; ; peels++ {
		if peels > 0 || !write {
			t := pass.Info.TypeOf(e)
			if isSnapshotType(t) {
				return true
			}
			var k taintKind
			if id, ok := e.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					k = taint[obj]
				}
			}
			if k == taintRef {
				return true
			}
			if (k == taintVal || snapshotValueType(t)) && (indirect || !write) {
				return true
			}
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			// A package-qualified name is a root, not a field chain.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := pass.Info.Uses[id].(*types.PkgName); isPkg {
					return false
				}
			}
			if sel := pass.Info.Selections[x]; sel != nil && sel.Indirect() {
				indirect = true
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			if t := pass.Info.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Pointer, *types.Slice, *types.Map:
					indirect = true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.SliceExpr:
			// A reslice aliases the same backing array.
			if t := pass.Info.TypeOf(x.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					indirect = true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			indirect = true
			e = ast.Unparen(x.X)
		case *ast.CallExpr:
			// A method's result is derived from its receiver.
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || pass.Info.Selections[sel] == nil || pass.Info.Selections[sel].Kind() != types.MethodVal {
				return false
			}
			e = ast.Unparen(sel.X)
		default:
			return false
		}
	}
}

// chainRootObj returns the object of the identifier at the root of
// expr's selector/index/deref chain (nil when the root is not a plain
// identifier), with the number of steps taken.
func chainRootObj(pass *Pass, expr ast.Expr) (types.Object, int) {
	e := ast.Unparen(expr)
	peels := 0
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e, peels = ast.Unparen(x.X), peels+1
		case *ast.IndexExpr:
			e, peels = ast.Unparen(x.X), peels+1
		case *ast.StarExpr:
			e, peels = ast.Unparen(x.X), peels+1
		case *ast.UnaryExpr:
			if x.Op.String() != "&" {
				return nil, peels
			}
			e = ast.Unparen(x.X)
		case *ast.Ident:
			return pass.Info.Uses[e.(*ast.Ident)], peels
		default:
			return nil, peels
		}
	}
}

// computeParamMutators finds, for every in-package function, the
// parameter slots (receiver is slot 0 when present) the function may
// write through — directly, or by forwarding the parameter to another
// mutating function. This is the fact that catches writes laundered
// through helpers whose signatures never mention Snapshot.
func computeParamMutators(pass *Pass, g *callGraph) map[*cgNode]map[int]bool {
	slots := make(map[*cgNode]map[types.Object]int, len(g.nodes))
	mut := make(map[*cgNode]map[int]bool, len(g.nodes))
	for _, n := range g.nodes {
		m := make(map[types.Object]int)
		i := 0
		addField := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				if len(f.Names) == 0 {
					i++
					continue
				}
				for _, name := range f.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						m[obj] = i
					}
					i++
				}
			}
		}
		addField(n.decl.Recv)
		addField(n.decl.Type.Params)
		slots[n] = m
		mut[n] = make(map[int]bool)
	}

	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			n := n
			ast.Inspect(n.decl.Body, func(node ast.Node) bool {
				mark := func(e ast.Expr, needPeel bool) {
					obj, peels := chainRootObj(pass, e)
					if obj == nil || (needPeel && peels == 0) {
						return
					}
					if slot, ok := slots[n][obj]; ok && !mut[n][slot] {
						mut[n][slot] = true
						changed = true
					}
				}
				switch x := node.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						mark(lhs, true)
					}
				case *ast.IncDecStmt:
					mark(x.X, true)
				case *ast.CallExpr:
					callee := g.node(calleeOf(pass.Info, x))
					if callee == nil || callee == n {
						return true
					}
					for slot, arg := range callArgs(pass, callee, x) {
						if !mut[callee][slot] {
							continue
						}
						mark(arg, false)
					}
				}
				return true
			})
		}
	}
	return mut
}

// callArgs aligns a call's argument expressions with the callee's
// parameter slots (receiver first, variadic tail collapsed onto the
// last slot).
func callArgs(pass *Pass, callee *cgNode, call *ast.CallExpr) map[int]ast.Expr {
	out := make(map[int]ast.Expr)
	slot := 0
	if callee.decl.Recv != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if pass.Info.Selections[sel] != nil {
				out[0] = sel.X
			}
		}
		slot = 1
	}
	sig, ok := callee.fn.Type().(*types.Signature)
	if !ok {
		return out
	}
	nparams := sig.Params().Len()
	for i, arg := range call.Args {
		p := i
		if p >= nparams {
			p = nparams - 1
		}
		if p < 0 {
			break
		}
		out[slot+p] = arg
	}
	return out
}

// checkSnapshotEscape flags a call that hands snapshot-reachable memory
// to a function that writes through the receiving parameter.
func checkSnapshotEscape(pass *Pass, g *callGraph, n *cgNode, taint map[types.Object]taintKind, call *ast.CallExpr, mut map[*cgNode]map[int]bool) {
	callee := g.node(calleeOf(pass.Info, call))
	if callee == nil || callee == n {
		return
	}
	for slot, arg := range callArgs(pass, callee, call) {
		if !mut[callee][slot] {
			continue
		}
		e := ast.Unparen(arg)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
			e = u.X
		}
		if snapReachable(pass, taint, e, false) {
			pass.Reportf(arg.Pos(),
				"call passes memory reachable from a stream.Snapshot to %s, which writes through it (published snapshots are read lock-free and must never be mutated)",
				callee.fn.Name())
		}
	}
}
