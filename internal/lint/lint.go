// Package lint is multiclust's determinism and parallel-safety static
// analysis suite. It is built on the standard library only (go/parser,
// go/ast, go/types) so the repository keeps its no-external-deps contract.
//
// Every rule here encodes an invariant the library's byte-identical-replay
// guarantee rests on (see DESIGN.md, "Determinism invariants"):
//
//   - maporder:   no order-sensitive operation inside for-range over a map
//   - globalrand: no global math/rand state, no time-seeded RNGs
//   - sharedrng:  no *rand.Rand shared across parallel worker closures
//   - nakedgo:    no go statements outside internal/parallel
//   - floatkey:   no float map keys, no exact float ==/!= comparisons
//   - ctxpoll:    no looping function that takes a context.Context yet
//     never consults it (cancellation it can't observe)
//   - obsnil:     no direct obs.Recorder method calls outside internal/obs
//     (the nil-guarded helpers are what keep disabled instrumentation free)
//   - spanend:    no span-open (obs.Span/obs.SpanCtx/StartSpan) whose end
//     function is neither deferred nor called on every return path
//   - ctxflow:    no call that drops an in-scope ctx when the callee has a
//     ...Context-capable sibling (interprocedural over the module)
//   - rngescape:  no *rand.Rand crossing a parallel.For/Each/Map boundary
//     through a struct field, channel, or worker return value
//   - goleak:     no goroutine spawn whose Wait/channel-receive join is
//     skippable by an early return on some CFG path
//   - detsource:  no time.Now/global-entropy value flowing (via dataflow)
//     into a clustering Result
//
// The flow-sensitive rules (goleak, spanend) are built on the package's CFG
// builder (cfg.go); the taint rules (detsource) on the use-def/reaching-
// definitions engine (flowpass.go). Both are exported — see FlowPass — so
// future rules can share them.
//
// A finding can be suppressed with a directive comment on the offending
// line or the line directly above it:
//
//	//lint:ignore <rule>[,<rule>] <reason>
//
// The reason is mandatory in spirit (reviewers read it) but not enforced.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position. Fixes, when present,
// are mechanical rewrites that resolve it (applied by multiclust-lint -fix).
type Finding struct {
	Pos     token.Position `json:"pos"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
	Fixes   []SuggestedFix `json:"fixes,omitempty"`
}

// String renders the finding in the canonical file:line: [rule] message form
// emitted by cmd/multiclust-lint.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path, e.g. multiclust/internal/metrics
	Dir   string // directory the files were parsed from
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is a single named rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Finding
}

// All returns the full analyzer suite in report order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder(),
		GlobalRand(),
		SharedRNG(),
		NakedGo(),
		FloatKey(),
		CtxPoll(),
		ObsNil(),
		SpanEnd(),
		CtxFlow(),
		RngEscape(),
		GoLeak(),
		DetSource(),
	}
}

// Run applies the given analyzers to the package, drops findings suppressed
// by //lint:ignore directives, and returns the rest sorted by position.
func Run(p *Package, analyzers []*Analyzer) []Finding {
	ignores := collectIgnores(p)
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Run(p) {
			if ignores.suppresses(f) {
				continue
			}
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// ignoreSet maps file -> line -> rules suppressed at that line.
type ignoreSet map[string]map[int][]string

// IgnorePrefix is the directive that suppresses a finding:
// //lint:ignore <rule>[,<rule>] <reason>
const IgnorePrefix = "lint:ignore"

func collectIgnores(p *Package) ignoreSet {
	set := ignoreSet{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, IgnorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, IgnorePrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				m := set[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					set[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], strings.Split(fields[0], ",")...)
			}
		}
	}
	return set
}

// suppresses reports whether a directive on the finding's line, or the line
// directly above it, names the finding's rule (or "all").
func (s ignoreSet) suppresses(f Finding) bool {
	m := s[f.Pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, rule := range m[line] {
			if rule == f.Rule || rule == "all" {
				return true
			}
		}
	}
	return false
}

// ---- shared AST/type helpers used by the analyzers ----

// inspectStack walks root like ast.Inspect but hands fn the stack of open
// ancestor nodes (outermost first, not including n itself).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// rootIdent unwraps parens, selectors, index and star expressions (and
// single-argument calls/conversions, e.g. sort.Sort(byKey(keys))) down to the
// base identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			if len(x.Args) != 1 {
				return nil
			}
			e = x.Args[0]
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier to its object via Uses then Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// declaredOutside reports whether id's object is declared outside node's
// source range — i.e. the identifier refers to state that outlives one
// iteration of a loop rooted at node. Package-level and imported objects
// count as outside.
func declaredOutside(info *types.Info, id *ast.Ident, node ast.Node) bool {
	obj := objectOf(info, id)
	if obj == nil {
		return false
	}
	if obj.Pos() == token.NoPos {
		return true
	}
	return obj.Pos() < node.Pos() || obj.Pos() >= node.End()
}

// isFloat reports whether t's underlying type is a floating-point basic type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// pkgName resolves an identifier used as a package qualifier and returns the
// imported package path, or "".
func pkgName(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// selectorCall matches call expressions of the form pkg.Fn(...) — including
// generic instantiations pkg.Fn[T](...) — where pkg resolves to an import of
// pkgPath. It returns the selected function name.
func selectorCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	fun := call.Fun
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pkgName(info, base) != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// mentionsObject reports whether any identifier under n resolves to obj.
func mentionsObject(info *types.Info, n ast.Node, obj types.Object) bool {
	if n == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && objectOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func (p *Package) position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

func (p *Package) finding(rule string, pos token.Pos, format string, args ...any) Finding {
	return Finding{Pos: p.position(pos), Rule: rule, Message: fmt.Sprintf(format, args...)}
}

// edit builds a TextEdit replacing the source range [pos, end) with newText.
func (p *Package) edit(pos, end token.Pos, newText string) TextEdit {
	a := p.position(pos)
	b := p.position(end)
	return TextEdit{Filename: a.Filename, Offset: a.Offset, End: b.Offset, NewText: newText}
}
