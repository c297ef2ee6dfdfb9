// Command yat-lint is a repository-specific static analyzer for the YAT
// mediator, built only on the standard library (go/ast, go/parser,
// go/types). It enforces seven invariants the general Go toolchain cannot:
//
//  1. Exhaustive sealed-interface type switches: any type switch whose tag
//     is an algebra.Op or an xq.Node must handle every implementation
//     declared in the owning package. Adding a new operator to op.go (or a
//     new AST node to internal/xq) therefore fails the lint at every
//     rewrite, execution, printing or compilation switch that silently
//     ignores it — the class of bug that turns a new operator into a no-op
//     plan node or drops a new syntax form on the floor.
//  2. No mutation of a shared *tab.Tab: a function receiving a *tab.Tab
//     parameter treats it as a shared operand (operator inputs are reused
//     across plan branches) and must not call its mutating methods
//     (Add, AddRow, SortBy, Concat) or write its fields; it must clone
//     first.
//  3. Plan-analysis test coverage: the tests of internal/typecheck must
//     construct every algebra.Op implementation, so a new operator cannot
//     land without a test pinning its inference rule and its
//     well-formedness checks (the analysis switch itself degrades unknown
//     operators to Any and checks only their children by design, which is
//     exactly why the toolchain would never notice the gap).
//  4. One way to call a source: only internal/algebra/call.go (FetchStream,
//     PushStream, PushBatch) may ask a source which optional call interface
//     it has. A type assertion or type-switch case on algebra.ContextSource,
//     BatchSource, StreamSource or PushStreamSource anywhere else — the rest
//     of internal/algebra included — is a new copy of that ladder.
//  5. One way to count: a write (++, +=, =, ...) to a field of
//     algebra.Stats (obs.Counts) outside algebra's Context.count and
//     Counts.Add. Everything else counts through Context.count, which adds
//     to the query's Stats and the ambient trace span together — a counter
//     written any other way is missing from one of the two.
//  6. One reader of the Project rename format: in a package that imports
//     internal/tab or internal/algebra, searching a string for "=" with
//     strings.IndexByte, Index, Cut or SplitN outside tab.SplitRename. A
//     projection entry "new=old" is split there and nowhere else, so a
//     change to the format has one place to change.
//  7. One evaluator of a Bind filter: a call to (*filter.Filter).Match or
//     Matcher, or to (*filter.Matcher).Append, outside internal/algebra and
//     internal/filter. A wrapper answers the part of a push its source
//     engine does not through internal/exec, so a filter matched anywhere
//     else is a second evaluator that can disagree with the algebra.
//
// A finding is suppressed by a `// yat-lint:ignore <reason>` comment on the
// offending line or the line directly above it. A `default:` clause does
// NOT suppress the exhaustiveness check: a default that quietly returns the
// operator unchanged is precisely the bug the check exists to catch.
//
// Usage:
//
//	yat-lint [packages...]   (defaults to ./...)
//
// Exits 0 when clean, 1 with findings, 2 on loader errors. Test files are
// not analyzed by checks 1, 2, 4, 5, 6 and 7; check 3 reads the typecheck package's
// test files (syntactically) and runs whenever that package is in the
// analyzed set.
package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

const (
	algebraPath   = "repro/internal/algebra"
	filterPath    = "repro/internal/filter"
	obsPath       = "repro/internal/obs"
	xqPath        = "repro/internal/xq"
	tabPath       = "repro/internal/tab"
	typecheckPath = "repro/internal/typecheck"
	ladderFile    = "call.go" // in algebraPath: the one caller of a source (check 4)
	ignoreTag     = "yat-lint:ignore"
)

// A sealedIface names an interface whose implementation set is closed within
// its declaring package, making exhaustive type switches checkable.
type sealedIface struct {
	path, name string
}

// sealedIfaces are the interfaces check 1 enforces exhaustiveness for.
var sealedIfaces = []sealedIface{
	{algebraPath, "Op"},
	{xqPath, "Node"},
}

// sealedSet pairs a sealed interface with its discovered implementations.
type sealedSet struct {
	iface sealedIface
	impls map[string]bool
}

// callIfaces are the optional call interfaces of algebra.Source (check 4).
var callIfaces = map[string]bool{
	"ContextSource": true, "BatchSource": true, "StreamSource": true, "PushStreamSource": true,
}

// tabMutators are the *tab.Tab methods that modify the receiver in place.
var tabMutators = map[string]bool{
	"Add": true, "AddRow": true, "SortBy": true, "Concat": true,
}

func main() {
	pats := os.Args[1:]
	if len(pats) == 0 {
		pats = []string{"./..."}
	}
	findings, err := run(pats)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yat-lint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "yat-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// pkgInfo is the subset of `go list` output the linter needs.
type pkgInfo struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

func run(pats []string) ([]string, error) {
	pkgs, err := listPackages(pats)
	if err != nil {
		return nil, err
	}
	// The sealed-interface packages are always listed explicitly: analyzing
	// a package subset (yat-lint ./internal/foo) must not fail just because
	// the subset's dependency closure misses algebra or xq.
	exportPats := append(append([]string{}, pats...), algebraPath, xqPath)
	exports, err := exportData(exportPats)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p := exports[path]
		if p == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p)
	})

	// Each implementation set comes from the compiled declaring package, so
	// the lint tracks op.go / ast.go automatically.
	var sealed []sealedSet
	for _, si := range sealedIfaces {
		impls, err := implementations(imp, si)
		if err != nil {
			return nil, err
		}
		sealed = append(sealed, sealedSet{iface: si, impls: impls})
	}
	ops := sealed[0].impls // algebra.Op, used by check 3

	var findings []string
	for _, pkg := range pkgs {
		fs, err := lintPackage(fset, imp, pkg, sealed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.ImportPath, err)
		}
		findings = append(findings, fs...)
		if pkg.ImportPath == typecheckPath {
			fs, err := checkTypecheckCoverage(ops)
			if err != nil {
				return nil, err
			}
			findings = append(findings, fs...)
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// checkTypecheckCoverage (check 3) verifies that the typecheck package's
// tests construct every algebra.Op implementation. GoFiles excludes tests,
// so the test files are listed separately and inspected syntactically: a
// composite literal algebra.X{...} (or &algebra.X{...}) counts as coverage
// for operator X.
func checkTypecheckCoverage(ops map[string]bool) ([]string, error) {
	out, err := goTool([]string{"list", "-f", "{{.Dir}}\t{{range .TestGoFiles}}{{.}} {{end}}", typecheckPath})
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(strings.TrimSpace(out), "\t", 2)
	dir := parts[0]
	var names []string
	if len(parts) == 2 {
		names = strings.Fields(parts[1])
	}
	constructed := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if sel, ok := cl.Type.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "algebra" {
					constructed[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var findings []string
	for op := range ops {
		if !constructed[op] {
			findings = append(findings, fmt.Sprintf(
				"%s: tests never construct algebra.%s — its inference rule and well-formedness checks are untested", typecheckPath, op))
		}
	}
	return findings, nil
}

// listPackages resolves the command-line patterns via the go tool.
func listPackages(pats []string) ([]pkgInfo, error) {
	args := append([]string{"list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{range .GoFiles}}{{.}} {{end}}"}, pats...)
	out, err := goTool(args)
	if err != nil {
		return nil, err
	}
	var pkgs []pkgInfo
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			continue
		}
		pkgs = append(pkgs, pkgInfo{
			ImportPath: parts[0],
			Dir:        parts[1],
			GoFiles:    strings.Fields(parts[2]),
		})
	}
	return pkgs, nil
}

// exportData maps every dependency's import path to its compiled export
// file. Modern toolchains ship no prebuilt stdlib .a files, so the default
// importer cannot be used; `go list -export` materializes export data for
// the whole dependency closure in the build cache instead.
func exportData(pats []string) (map[string]string, error) {
	args := append([]string{"list", "-deps", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, pats...)
	out, err := goTool(args)
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if i := strings.IndexByte(line, '='); i > 0 && line[i+1:] != "" {
			m[line[:i]] = line[i+1:]
		}
	}
	return m, nil
}

func goTool(args []string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %w", strings.Join(args[:2], " "), err)
	}
	return string(out), nil
}

// implementations returns the names of all concrete types in the sealed
// interface's declaring package whose value or pointer implements it.
func implementations(imp types.Importer, si sealedIface) (map[string]bool, error) {
	pkg, err := imp.Import(si.path)
	if err != nil {
		return nil, fmt.Errorf("importing %s: %w", si.path, err)
	}
	obj := pkg.Scope().Lookup(si.name)
	if obj == nil {
		return nil, fmt.Errorf("%s has no %s interface", si.path, si.name)
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil, fmt.Errorf("%s.%s is not an interface", si.path, si.name)
	}
	impls := map[string]bool{}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || name == si.name {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(types.NewPointer(tn.Type()), iface) {
			impls[name] = true
		}
	}
	if len(impls) == 0 {
		return nil, fmt.Errorf("no %s implementations found in %s", si.name, si.path)
	}
	return impls, nil
}

// lintPackage type-checks one package from source and analyzes it.
func lintPackage(fset *token.FileSet, imp types.Importer, pkg pkgInfo, sealed []sealedSet) ([]string, error) {
	var files []*ast.File
	for _, name := range pkg.GoFiles {
		path := filepath.Join(pkg.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var typeErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	conf.Check(pkg.ImportPath, fset, files, info) // errors reported via conf.Error
	if typeErr != nil {
		return nil, typeErr
	}
	return analyze(fset, files, info, pkg.ImportPath, sealed), nil
}

// analyze runs checks 1, 2, 4, 5, 6 and 7 over a type-checked package.
func analyze(fset *token.FileSet, files []*ast.File, info *types.Info, pkgPath string, sealed []sealedSet) []string {
	ignored := map[string]map[int]bool{} // filename → lines carrying an ignore tag
	renames := pkgPath == tabPath || pkgPath == algebraPath
	for _, f := range files {
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == tabPath || p == algebraPath {
				renames = true
			}
		}
		lines := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, ignoreTag) {
					lines[fset.Position(c.Pos()).Line] = true
				}
			}
		}
		ignored[fset.Position(f.Pos()).Filename] = lines
	}
	c := &checker{fset: fset, info: info, sealed: sealed, ignored: ignored, pkgPath: pkgPath, renames: renames}
	for _, f := range files {
		c.file(f)
	}
	return c.findings
}

type checker struct {
	fset     *token.FileSet
	info     *types.Info
	sealed   []sealedSet
	ignored  map[string]map[int]bool
	pkgPath  string
	findings []string
	// counts is set while visiting one of the two functions that may write
	// a counter field (check 5).
	counts bool
	// renames is set in a package that knows the Project rename format
	// (check 6); splitter while visiting tab.SplitRename itself.
	renames, splitter bool
	// ladder is set while visiting internal/algebra/call.go, the one file
	// that may ask a source for an optional call interface (check 4).
	ladder bool
	// params holds, per enclosing function (innermost last), the *tab.Tab
	// parameters considered shared operands.
	params []map[types.Object]bool
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	p := c.fset.Position(pos)
	if lines := c.ignored[p.Filename]; lines != nil && (lines[p.Line] || lines[p.Line-1]) {
		return
	}
	rel := p.Filename
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, p.Filename); err == nil && !strings.HasPrefix(r, "..") {
			rel = r
		}
	}
	c.findings = append(c.findings,
		fmt.Sprintf("%s:%d:%d: %s", rel, p.Line, p.Column, fmt.Sprintf(format, args...)))
}

func (c *checker) file(f *ast.File) {
	c.ladder = c.pkgPath == algebraPath && filepath.Base(c.fset.Position(f.Pos()).Filename) == ladderFile
	for _, d := range f.Decls {
		c.counts = c.isCounterWriter(d)
		c.splitter = c.isFunc(d, tabPath+".SplitRename")
		ast.Inspect(d, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				c.pushParams(x.Type)
			case *ast.FuncLit:
				c.pushParams(x.Type)
			case *ast.TypeSwitchStmt:
				c.checkOpSwitch(x)
			case *ast.TypeAssertExpr:
				c.checkCallIface(x.Type)
			case *ast.CaseClause:
				for _, e := range x.List {
					c.checkCallIface(e)
				}
			case *ast.CallExpr:
				c.checkTabCall(x)
				c.checkRenameParse(x)
			case *ast.SelectorExpr:
				c.checkFilterMatch(x)
			case *ast.AssignStmt:
				c.checkTabWrite(x)
				for _, lhs := range x.Lhs {
					c.checkCounterWrite(lhs)
				}
			case *ast.IncDecStmt:
				if root := c.sharedTabRoot(x.X); root != "" {
					c.report(x.Pos(), "mutation of shared *tab.Tab parameter %s", root)
				}
				c.checkCounterWrite(x.X)
			case nil:
			}
			return true
		})
	}
	// ast.Inspect gives no post-order hook for popping one frame at a time,
	// so params frames are pushed eagerly and the stack reset per file; the
	// over-approximation is harmless because parameter objects are compared
	// by identity, never by name.
	c.params = nil
}

// isCounterWriter reports whether d is algebra's (*Context).count or obs's
// (*Counts).Add, the only functions check 5 lets write a counter field.
func (c *checker) isCounterWriter(d ast.Decl) bool {
	return c.isFunc(d, "(*"+algebraPath+".Context).count") || c.isFunc(d, "(*"+obsPath+".Counts).Add")
}

// isFunc reports whether d declares the function with the given full name.
func (c *checker) isFunc(d ast.Decl, fullName string) bool {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return false
	}
	fn, _ := c.info.Defs[fd.Name].(*types.Func)
	return fn != nil && fn.FullName() == fullName
}

// stringSearches are the strings functions check 6 watches, each taking the
// searched-for separator as its second argument.
var stringSearches = map[string]bool{"IndexByte": true, "Index": true, "Cut": true, "SplitN": true}

// checkRenameParse (check 6) flags a search for "=" in a package that knows
// the Project rename format, outside tab.SplitRename.
func (c *checker) checkRenameParse(call *ast.CallExpr) {
	if !c.renames || c.splitter || len(call.Args) < 2 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !stringSearches[sel.Sel.Name] {
		return
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || !isPkg(c.info.Uses[pkg], "strings") {
		return
	}
	v := c.info.Types[call.Args[1]].Value
	if v == nil {
		return
	}
	if v.Kind() == constant.String && constant.StringVal(v) == "=" ||
		v.Kind() == constant.Int && constant.Compare(v, token.EQL, constant.MakeInt64('=')) {
		c.report(call.Pos(), "strings.%s splits on \"=\" beside the Project rename format: read a projection entry with tab.SplitRename",
			sel.Sel.Name)
	}
}

// filterMatches names the methods of package filter that match a filter
// (check 7), by their full names.
var filterMatches = map[string]string{
	"(*" + filterPath + ".Filter).Match":   "Filter.Match",
	"(*" + filterPath + ".Filter).Matcher": "Filter.Matcher",
	"(*" + filterPath + ".Matcher).Append": "Matcher.Append",
}

// checkFilterMatch (check 7) flags a use of a filter matching method outside
// internal/algebra and internal/filter.
func (c *checker) checkFilterMatch(sel *ast.SelectorExpr) {
	if c.pkgPath == algebraPath || c.pkgPath == filterPath {
		return
	}
	fn, ok := c.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	if name, ok := filterMatches[fn.FullName()]; ok {
		c.report(sel.Pos(), "filter.%s outside internal/algebra and internal/filter: a Bind filter is matched only by the algebra; answer the plan through internal/exec",
			name)
	}
}

func isPkg(obj types.Object, path string) bool {
	pn, ok := obj.(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// checkCounterWrite (check 5) flags an assignment or increment whose target
// is a field of obs.Counts — algebra.Stats — outside the counter writers.
func (c *checker) checkCounterWrite(lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || c.counts {
		return
	}
	t := types.Unalias(c.info.Types[sel.X].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if t == nil || t.String() != obsPath+".Counts" {
		return
	}
	c.report(lhs.Pos(), "write to counter %s outside algebra.Context.count: count through it, so the query's Stats and its trace span both see the work",
		sel.Sel.Name)
}

// pushParams records the function's *tab.Tab parameters. The tab package
// itself is exempt: Tab's own methods are the mutation API.
func (c *checker) pushParams(ft *ast.FuncType) {
	if c.pkgPath == tabPath {
		return
	}
	frame := map[types.Object]bool{}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				obj := c.info.Defs[name]
				if obj != nil && isTabPtr(obj.Type()) {
					frame[obj] = true
				}
			}
		}
	}
	c.params = append(c.params, frame)
}

func isTabPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == tabPath && named.Obj().Name() == "Tab"
}

// sharedTabRoot unwraps selector/index chains (t.Rows[i].x → t) and returns
// the parameter name when the base identifier is a shared *tab.Tab
// parameter of any enclosing function.
func (c *checker) sharedTabRoot(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := c.info.Uses[x]
			if obj == nil {
				return ""
			}
			for _, frame := range c.params {
				if frame[obj] {
					return x.Name
				}
			}
			return ""
		default:
			return ""
		}
	}
}

// checkTabCall flags mutating method calls on a shared *tab.Tab parameter.
func (c *checker) checkTabCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !tabMutators[sel.Sel.Name] {
		return
	}
	if ident, ok := sel.X.(*ast.Ident); ok {
		obj := c.info.Uses[ident]
		if obj == nil {
			return
		}
		for _, frame := range c.params {
			if frame[obj] {
				c.report(call.Pos(),
					"call to %s on shared *tab.Tab parameter %s (clone before mutating)",
					sel.Sel.Name, ident.Name)
				return
			}
		}
	}
}

// checkTabWrite flags field writes through a shared *tab.Tab parameter
// (t.Rows = ..., t.Rows[i] = ..., t.Cols = append(...)).
func (c *checker) checkTabWrite(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if _, isIdent := lhs.(*ast.Ident); isIdent {
			continue // plain variable assignment, not a field write
		}
		if root := c.sharedTabRoot(lhs); root != "" {
			c.report(lhs.Pos(), "write through shared *tab.Tab parameter %s (clone before mutating)", root)
		}
	}
}

// checkCallIface flags the asserted type of a type assertion, or a case of
// a switch, that names an optional call interface outside the ladder's file.
// Expressions that are not types (the cases of a value switch, the nil Type
// of a switch's own x.(type)) name nothing and pass.
func (c *checker) checkCallIface(e ast.Expr) {
	if c.ladder || e == nil {
		return
	}
	tv, ok := c.info.Types[e]
	if !ok || !tv.IsType() {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != algebraPath || !callIfaces[named.Obj().Name()] {
		return
	}
	c.report(e.Pos(), "type assertion to algebra.%s outside internal/algebra/call.go: call the source through algebra.FetchStream, PushStream or PushBatch",
		named.Obj().Name())
}

// checkOpSwitch flags sealed-interface type switches (algebra.Op, xq.Node)
// that do not handle every implementation.
func (c *checker) checkOpSwitch(sw *ast.TypeSwitchStmt) {
	tag := switchTag(sw)
	if tag == nil {
		return
	}
	tv, ok := c.info.Types[tag]
	if !ok {
		return
	}
	var set *sealedSet
	for i := range c.sealed {
		if isSealedIface(tv.Type, c.sealed[i].iface) {
			set = &c.sealed[i]
			break
		}
	}
	if set == nil {
		return
	}
	handled := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			et, ok := c.info.Types[e]
			if !ok {
				continue
			}
			t := et.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok &&
				named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == set.iface.path {
				handled[named.Obj().Name()] = true
			}
		}
	}
	var missing []string
	for impl := range set.impls {
		if !handled[impl] {
			missing = append(missing, impl)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		c.report(sw.Pos(), "type switch over %s.%s misses %d implementation(s): %s",
			path.Base(set.iface.path), set.iface.name, len(missing), strings.Join(missing, ", "))
	}
}

// switchTag extracts the expression whose type is switched on:
// `switch x := e.(type)` or `switch e.(type)`.
func switchTag(sw *ast.TypeSwitchStmt) ast.Expr {
	var e ast.Expr
	switch a := sw.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			e = a.Rhs[0]
		}
	case *ast.ExprStmt:
		e = a.X
	}
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		return ta.X
	}
	return nil
}

func isSealedIface(t types.Type, si sealedIface) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == si.path && named.Obj().Name() == si.name
}
