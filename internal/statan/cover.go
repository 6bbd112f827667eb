package statan

// Shared machinery for the coverage passes (snapshotcover,
// equalitycover). Both analyze the same shape: a package-level struct
// type whose methods define a coverage relation over its fields — "read
// by Snapshot and written by Restore", "compared by StateEquals" — and a
// field annotation that documents a deliberate exclusion.
//
// Field reference collection is receiver-based and syntactic: a field
// F of struct T counts as referenced by method M when M's body (or the
// body of another T-method M transitively calls on its receiver)
// contains a selector recv.F on M's receiver identifier. That covers
// every idiom the snapshot layer uses — struct literals
// (PRF: slices.Clone(c.prf)), copy(c.prf, s.PRF),
// append(c.fetchQ[:0], ...), nested access (c.rob.head), and reads
// inside closures — without needing whole-program type information.
// Shadowing the receiver name inside a method would over-count; the
// codebase's style (short receivers, no shadowing) makes that a
// non-issue in practice, and over-counting errs toward silence, never
// toward a false diagnostic... for coverage. Staleness checks can
// under-fire, never mis-fire a covered field.

import (
	"go/ast"
)

// structDecl is one package-level struct type with its methods.
type structDecl struct {
	Name    string
	Spec    *ast.TypeSpec
	Struct  *ast.StructType
	Methods map[string]*ast.FuncDecl
}

// fieldNames returns the declared name(s) of a struct field (several
// for "a, b int"; the type name for an embedded field).
func fieldNames(f *ast.Field) []*ast.Ident {
	if len(f.Names) > 0 {
		return f.Names
	}
	// Embedded field: the implicit name is the (possibly pointered)
	// type's base identifier.
	t := f.Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return []*ast.Ident{t}
	case *ast.SelectorExpr:
		return []*ast.Ident{t.Sel}
	}
	return nil
}

// receiverBaseName unwraps a method receiver type (*T, T, *T[X]) to
// the base type name T.
func receiverBaseName(recv *ast.FieldList) (string, bool) {
	if recv == nil || len(recv.List) != 1 {
		return "", false
	}
	t := recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if ixl, ok := t.(*ast.IndexListExpr); ok {
		t = ixl.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

// packageStructs collects every package-level struct declaration and
// attaches the methods declared on it (by receiver base type name),
// across all files of the package, in deterministic file order.
func packageStructs(pkg *Package) []*structDecl {
	byName := map[string]*structDecl{}
	var order []*structDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
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
				sd := &structDecl{
					Name:    ts.Name.Name,
					Spec:    ts,
					Struct:  st,
					Methods: map[string]*ast.FuncDecl{},
				}
				byName[sd.Name] = sd
				order = append(order, sd)
			}
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			base, ok := receiverBaseName(fd.Recv)
			if !ok {
				continue
			}
			if sd, ok := byName[base]; ok {
				sd.Methods[fd.Name.Name] = fd
			}
		}
	}
	return order
}

// structsByName indexes a packageStructs result for embedded-struct
// expansion.
func structsByName(sds []*structDecl) map[string]*structDecl {
	byName := make(map[string]*structDecl, len(sds))
	for _, sd := range sds {
		byName[sd.Name] = sd
	}
	return byName
}

// expandFields returns the struct's effective field list with embedded
// same-package struct fields expanded in place (promotion-aware
// coverage): an embedded struct like cpu.Core's soa contributes its
// own fields — with their own annotations — instead of appearing as a
// single opaque field, because methods reference the promoted names
// (c.u64, c.prf), never the embedded field itself. Only plain embedded
// same-package structs expand; named fields, pointers, and external
// types stay as declared. Cyclic embedding (impossible for value
// embedding, which Go rejects) is guarded anyway.
func expandFields(sd *structDecl, byName map[string]*structDecl) []*ast.Field {
	var out []*ast.Field
	seen := map[string]bool{sd.Name: true}
	var expand func(st *ast.StructType)
	expand = func(st *ast.StructType) {
		for _, field := range st.Fields.List {
			if len(field.Names) == 0 {
				if id, ok := field.Type.(*ast.Ident); ok {
					if inner, ok := byName[id.Name]; ok && !seen[id.Name] {
						seen[id.Name] = true
						expand(inner.Struct)
						continue
					}
				}
			}
			out = append(out, field)
		}
	}
	expand(sd.Struct)
	return out
}

// receiverName returns the declared receiver identifier of a method
// ("" for an anonymous receiver, which can reference no field).
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// fieldRefs returns the set of receiver field names the method's body
// references, the subset it writes, and the set of sibling methods it
// calls on its receiver (for transitive closure). A write is a field at
// the root of an assignment or ++/-- target, or of the destination of
// the copy and clear builtins; writes through method calls and
// pointers are not seen, so the write set under-counts.
func fieldRefs(fd *ast.FuncDecl, methods map[string]*ast.FuncDecl) (fields, writes, calls map[string]bool) {
	fields, writes, calls = map[string]bool{}, map[string]bool{}, map[string]bool{}
	recv := receiverName(fd)
	if recv == "" || fd.Body == nil {
		return fields, writes, calls
	}
	written := func(target ast.Expr) {
		if f := rootField(target, recv); f != "" {
			writes[f] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				written(lhs)
			}
		case *ast.IncDecStmt:
			written(n.X)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "copy" || id.Name == "clear") && len(n.Args) > 0 {
				written(n.Args[0])
			}
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok || id.Name != recv {
				return true
			}
			if _, isMethod := methods[n.Sel.Name]; isMethod {
				calls[n.Sel.Name] = true
			} else {
				fields[n.Sel.Name] = true
			}
		}
		return true
	})
	return fields, writes, calls
}

// rootField returns the receiver field an assignable expression is
// rooted in (recv.F, recv.F[i], recv.F[a:b], recv.F.G, ...), or "".
func rootField(e ast.Expr, recv string) string {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == recv {
				return x.Sel.Name
			}
			e = x.X
		default:
			return ""
		}
	}
}

// methodFieldRefs returns every receiver field referenced by the named
// method or, transitively, by sibling methods it calls on its receiver
// (e.g. Snapshot calling a snapshot helper on the same receiver).
func (sd *structDecl) methodFieldRefs(name string) map[string]bool {
	refs, _ := sd.methodFieldUse(name)
	return refs
}

// methodFieldUse is methodFieldRefs plus the subset of fields the same
// methods write (see fieldRefs).
func (sd *structDecl) methodFieldUse(name string) (refs, writes map[string]bool) {
	refs, writes = map[string]bool{}, map[string]bool{}
	visited := map[string]bool{}
	var walk func(string)
	walk = func(m string) {
		if visited[m] {
			return
		}
		visited[m] = true
		fd, ok := sd.Methods[m]
		if !ok {
			return
		}
		fields, written, calls := fieldRefs(fd, sd.Methods)
		for f := range fields { //lint:ordered set union into a set; order cannot reach the result
			refs[f] = true
		}
		for f := range written { //lint:ordered set union into a set; order cannot reach the result
			writes[f] = true
		}
		var next []string
		for c := range calls { //lint:ordered collected into a set; traversal order cannot change the resulting union
			next = append(next, c)
		}
		for _, c := range next {
			walk(c)
		}
	}
	walk(name)
	return refs, writes
}
