package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// apiIndex collects, over a full-tree run, the exported API of internal/
// packages and every use of it from a non-test file. Objects are keyed by
// (package path, receiver base type, name) rather than by identity: the
// module importer may type-check a package twice, once as an import and
// once as a lint target, and the two checks share no objects.
type apiIndex struct {
	defs map[apiKey]apiDef
	used map[apiKey]bool
}

type apiKey struct{ pkg, recv, name string }

type apiDef struct {
	pos  token.Pos
	dir  string
	kind string
}

// apiKeyOf keys an exported package-level func, type, var or const, or an
// exported method of a named non-interface type.
func apiKeyOf(obj types.Object) (apiKey, string, bool) {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin() // a use of an instantiated generic names its origin
	}
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return apiKey{}, "", false
	}
	k := apiKey{pkg: obj.Pkg().Path(), name: obj.Name()}
	var kind string
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(named) {
				return apiKey{}, "", false
			}
			k.recv = named.Obj().Name()
			return k, "method", true
		}
		kind = "func"
	case *types.TypeName:
		kind = "type"
	case *types.Var:
		kind = "var"
	case *types.Const:
		kind = "const"
	default:
		return apiKey{}, "", false
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return apiKey{}, "", false // a local or a struct field
	}
	return k, kind, true
}

// record adds the uses of one type-checked package and, for a package
// under internal/, its exported definitions.
func (x *apiIndex) record(pkg *types.Package, dir string, info *types.Info) {
	for _, obj := range info.Uses {
		if k, _, ok := apiKeyOf(obj); ok {
			x.used[k] = true
		}
	}
	if !strings.HasPrefix(dir, "internal/") {
		return
	}
	for id, obj := range info.Defs {
		if obj == nil || obj.Pkg() != pkg {
			continue
		}
		if k, kind, ok := apiKeyOf(obj); ok {
			x.defs[k] = apiDef{pos: id.Pos(), dir: dir, kind: kind}
		}
	}
}

// unusedAPI reports each exported definition that no non-test file uses.
// A method is exempt when its type implements an interface, declared in a
// checked package or in a package one imports, that has a method of that
// name: such methods are called through the interface.
func (l *goLinter) unusedAPI() []Diag {
	ifaces := l.interfaces()
	var out []Diag
	for k, d := range l.api.defs {
		if l.api.used[k] || (k.recv != "" && l.implementsInterface(k, ifaces)) {
			continue
		}
		name := k.name
		if k.recv != "" {
			name = k.recv + "." + name
		}
		msg := fmt.Sprintf("exported %s %s is used by no non-test file; delete it, unexport it or allow it with a reason", d.kind, name)
		diag, ok := l.diag(l.fset.Position(d.pos), RuleUnusedAPI, msg)
		if ok && !l.allow.Allowed(d.dir, RuleUnusedAPI) {
			out = append(out, diag)
		}
	}
	return out
}

// interfaces returns the non-empty, non-generic named interfaces of every
// package the run type-checked or imported, plus error.
func (l *goLinter) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.imp.cache {
		visit(p)
	}
	return out
}

// implementsInterface reports whether the receiver type of method k, or a
// pointer to it, implements one of ifaces that has a method named k.name.
// The check runs in the importer's universe, where every package and the
// interfaces it refers to are one set of objects.
func (l *goLinter) implementsInterface(k apiKey, ifaces []*types.Interface) bool {
	pkg := l.imp.cache[k.pkg]
	if pkg == nil {
		return false
	}
	tn, ok := pkg.Scope().Lookup(k.recv).(*types.TypeName)
	if !ok {
		return false
	}
	t := tn.Type()
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == k.name && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
