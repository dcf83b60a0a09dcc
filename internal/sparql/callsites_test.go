package sparql

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sourceFiles parses every non-test Go file of the module, keyed by its
// slash-separated path relative to the module root, in one file set.
func sourceFiles(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset, files := moduleFiles(t)
	for rel := range files {
		if strings.HasSuffix(rel, "_test.go") {
			delete(files, rel)
		}
	}
	return fset, files
}

// internalFiles is sourceFiles under internal/, keyed by the path
// relative to internal/.
func internalFiles(t *testing.T) map[string]*ast.File {
	t.Helper()
	_, all := sourceFiles(t)
	files := map[string]*ast.File{}
	for rel, file := range all {
		if rest, ok := strings.CutPrefix(rel, "internal/"); ok {
			files[rest] = file
		}
	}
	return files
}

// importName returns the name file refers to the import path by, "" when
// it does not import it.
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// callers lists the files that call the package-level function symbol of
// this package: qualified through their import of it, or bare from inside
// the package.
func callers(files map[string]*ast.File, symbol string) []string {
	var out []string
	for rel, file := range files {
		pkg, inside := importName(file, "sparqlrw/internal/sparql"), strings.HasPrefix(rel, "sparql/")
		calls := false
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return !calls
			}
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				x, ok := fn.X.(*ast.Ident)
				calls = calls || (ok && pkg != "" && x.Name == pkg && fn.Sel.Name == symbol)
			case *ast.Ident:
				calls = calls || (inside && fn.Name == symbol)
			}
			return !calls
		})
		if calls {
			out = append(out, rel)
		}
	}
	sort.Strings(out)
	return out
}

// textCallSites pins where query text is read and where it is made:
// between the fronts that accept text and the sockets that carry it a
// query is a *Query and an answer is rows. The non-test files under
// internal/ that call Parse are the fronts (the /sparql and /api handlers,
// Mediator.Query, the text-taking helpers of mediator.go,
// Decomposer.Decompose), the endpoint server and this package's own
// MustParse and UnmarshalText; those that call Format are the executor
// (what an endpoint receives, when a native target's query or a rewrite
// is not served from a cached template), Mediator.Rewrite's answer to a
// person, the trace's text of a
// policy-restricted query and MarshalText — no planner, decomposer stage
// or view code among either. The rewrite-plan cache key, a sub-query's
// shape, is the executor's too: it formats through Lift, and a cached
// rewrite through FormatTemplate; the result-cache key is written by
// AppendKey, with no query text in between.
var textCallSites = map[string][]string{
	"Parse": {
		"decompose/decompose.go",
		"endpoint/endpoint.go",
		"mediate/http.go",
		"mediate/mediator.go",
		"mediate/query.go",
		"sparql/format.go",
		"sparql/parser.go",
	},
	"Format": {
		"federate/federate.go",
		"mediate/mediator.go",
		"mediate/query.go",
		"sparql/format.go",
	},
}

func checkCallSites(t *testing.T, symbol string) {
	t.Helper()
	if got, want := callers(internalFiles(t), symbol), textCallSites[symbol]; !reflect.DeepEqual(got, want) {
		t.Errorf("non-test files under internal/ that call sparql.%s:\n got %v\nwant %v", symbol, got, want)
	}
}

// TestParseCallSites keeps the pipeline on one parse per request.
func TestParseCallSites(t *testing.T) { checkCallSites(t, "Parse") }

// TestFormatCallSites keeps the mediator from serialising queries for
// itself: text is made for a socket, a cache key or a person.
func TestFormatCallSites(t *testing.T) { checkCallSites(t, "Format") }

// TestOneLaneIn pins the structural facts behind "rows are the only way
// an answer enters the mediator". The view tier keeps rows: it imports
// neither the endpoint protocol nor its codec, nor a triple store, and
// builds no evaluator of its own. A view hit is a plan leaf the route
// chooses: the decomposer does not import the view tier, and selectStream
// refers to no Views field. The executor has one client path, the
// streaming one.
func TestOneLaneIn(t *testing.T) {
	for rel, file := range internalFiles(t) {
		if strings.HasPrefix(rel, "view/") {
			for _, banned := range []string{"sparqlrw/internal/endpoint", "sparqlrw/internal/srjson", "sparqlrw/internal/store"} {
				if importName(file, banned) != "" {
					t.Errorf("%s imports %s", rel, banned)
				}
			}
			if eval := importName(file, "sparqlrw/internal/eval"); eval != "" {
				ast.Inspect(file, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == eval && (sel.Sel.Name == "Engine" || sel.Sel.Name == "New") {
							t.Errorf("%s builds an eval.Engine: a view's answer is its rows", rel)
						}
					}
					return true
				})
			}
		}
		if strings.HasPrefix(rel, "decompose/") && importName(file, "sparqlrw/internal/view") != "" {
			t.Errorf("%s imports internal/view: a view is a leaf the mediator supplies", rel)
		}
		if strings.HasPrefix(rel, "mediate/") {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "selectStream" {
					ast.Inspect(fn, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Views" {
							t.Errorf("%s: selectStream refers to Views: the view decision is the route's", rel)
						}
						return true
					})
				}
			}
		}
		if strings.HasPrefix(rel, "federate/") {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "SelectContext" {
					t.Errorf("%s refers to SelectContext, the buffered client call", rel)
				}
				return true
			})
		}
	}
}

// TestOneLRU pins the one least-recently-used map: the rewrite-plan
// cache, the result cache and the CardStore keep their recency in
// internal/lru, and no other non-test file imports container/list.
func TestOneLRU(t *testing.T) {
	for rel, file := range internalFiles(t) {
		if !strings.HasPrefix(rel, "lru/") && importName(file, "container/list") != "" {
			t.Errorf("%s imports container/list: an LRU belongs to internal/lru", rel)
		}
	}
}

// moduleFiles parses every Go file of the module, tests included, keyed by
// its slash-separated path relative to the module root.
func moduleFiles(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	const root = "../.." // this package is internal/sparql
	fset, files := token.NewFileSet(), map[string]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := goparser.ParseFile(fset, path, nil, goparser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = file
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// TestOneEndpointTable pins the one model of each endpoint: its breaker,
// health and counts live in one record of the executor's endpoint table.
// No non-test file outside internal/federate names a federate.Breaker*
// identifier, no non-test file registers a CounterVec labelled "endpoint"
// (a per-endpoint count kept beside the table's), and the identifiers of
// the parallel models it replaced appear in no Go file.
func TestOneEndpointTable(t *testing.T) {
	gone := map[string]bool{"BindBreakers": true, "BreakerStates": true, "HealthFunc": true, "HealthOptions": true,
		"EndpointStats": true}
	fset, files := moduleFiles(t)
	for rel, file := range files {
		pkg := importName(file, "sparqlrw/internal/federate")
		test := strings.HasSuffix(rel, "_test.go")
		outside := pkg != "" && !strings.HasPrefix(rel, "internal/federate/") && !test
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if gone[n.Name] {
					t.Errorf("%s names %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && outside && x.Name == pkg && strings.HasPrefix(n.Sel.Name, "Breaker") {
					t.Errorf("%s refers to federate.%s: breakers belong to the endpoint table", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && !test && sel.Sel.Name == "CounterVec" {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Value == `"endpoint"` {
							t.Errorf("%s registers a CounterVec labelled endpoint: per-endpoint counts belong to the endpoint table", fset.Position(n.Pos()))
						}
					}
				}
			}
			return true
		})
	}
}

// TestOneHashJoin pins the one join implementation: rows are keyed for a
// hash join only inside the evaluator, and the mediator's joins are eval
// plans over remote leaves. Outside internal/eval (and internal/rdf, which
// defines it) no non-test file renders terms into a key with AppendString
// or AppendRowKey.
func TestOneHashJoin(t *testing.T) {
	for rel, file := range internalFiles(t) {
		if strings.HasPrefix(rel, "eval/") || strings.HasPrefix(rel, "rdf/") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "AppendString" || sel.Sel.Name == "AppendRowKey") {
				t.Errorf("%s renders a row key with %s: hash joins belong to internal/eval", rel, sel.Sel.Name)
			}
			return true
		})
	}
}

// TestOneBoundJoin pins the one place VALUES blocks are cut for the wire:
// only the join engine (decompose/join.go) calls plan.ShardQuery — for a
// whole fragment's own block and for a bound stage's bindings, a
// DESCRIBE's description fetch among them — and internal/plan, which
// declares it, does not call it either. The identifiers of the bound join
// DESCRIBE once ran beside it appear in no Go file.
func TestOneBoundJoin(t *testing.T) {
	gone := map[string]bool{"describeRequest": true, "describeValuesBatch": true, "maxDescribeAliases": true}
	fset, files := moduleFiles(t)
	for rel, file := range files {
		pkg := importName(file, "sparqlrw/internal/plan")
		shards := rel != "internal/decompose/join.go" && !strings.HasSuffix(rel, "_test.go")
		inPlan := strings.HasPrefix(rel, "internal/plan/")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if gone[n.Name] {
					t.Errorf("%s names %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && shards && pkg != "" && x.Name == pkg && n.Sel.Name == "ShardQuery" {
					t.Errorf("%s refers to plan.ShardQuery: VALUES shards belong to the join engine", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.Ident); ok && shards && inPlan && fn.Name == "ShardQuery" {
					t.Errorf("%s calls ShardQuery: VALUES shards belong to the join engine", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}

// TestOnePlanner pins one planner: every query is a decomposition, planned
// from one source selection. No non-test file outside internal/plan and
// internal/decompose calls PatternSources, the per-pattern relevance
// rule, and the identifiers of the whole-query plan that once ran beside
// the decomposer — its sub-requests, their conversion to an executor
// request and its query profile — appear in no Go file. (TestOneBoundJoin
// pins that the plan's VALUES shards are cut by the join engine alone.)
func TestOnePlanner(t *testing.T) {
	gone := map[string]bool{"PlanRequest": true, "SubRequest": true, "profileQuery": true}
	fset, files := moduleFiles(t)
	for rel, file := range files {
		planner := strings.HasPrefix(rel, "internal/plan/") || strings.HasPrefix(rel, "internal/decompose/") ||
			strings.HasSuffix(rel, "_test.go")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if gone[n.Name] {
					t.Errorf("%s names %s", fset.Position(n.Pos()), n.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && !planner && sel.Sel.Name == "PatternSources" {
					t.Errorf("%s calls PatternSources: source selection belongs to the planner", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}

// TestNoSourceOntology pins rewriting from every vocabulary: a target's
// rewriter selects every alignment into it, and each triple rewrites
// through the alignment its own IRIs match, so no request carries a source
// ontology. The identifiers that once carried one — the guess, a
// fragment's rewrite source, the request's, the decomposition's and the
// plan-cache key's — appear in no Go file. Outside internal/align, a
// non-test file sets an align.Selector's SourceOntology only in the
// planner's per-pattern relevance check (patternSource) and in the
// mediator's rewriter, where Rewrite's explicit source narrows the
// alignments.
func TestNoSourceOntology(t *testing.T) {
	gone := map[string]bool{"guessSourceOntology": true, "GuessSourceOntology": true, "RewriteOnt": true, "SourceOnt": true}
	fset, files := moduleFiles(t)
	setters := map[string]bool{}
	for rel, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && gone[id.Name] {
				t.Errorf("%s names %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		if strings.HasPrefix(rel, "internal/align/") || strings.HasSuffix(rel, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn := "(package level)"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				var field ast.Expr
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					field = n.Key
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							field = sel.Sel
						}
					}
				}
				if id, ok := field.(*ast.Ident); ok && id.Name == "SourceOntology" {
					setters[rel+": "+fn] = true
				}
				return true
			})
		}
	}
	want := map[string]bool{"internal/plan/pattern.go: patternSource": true, "internal/mediate/mediator.go: rewriter": true}
	if !reflect.DeepEqual(setters, want) {
		t.Errorf("SourceOntology is set in %v, want only in %v", setters, want)
	}
}

// TestOneSourceSet pins the tenant's dataset allowlist as one fact read in
// one place: internal/mediate reads it once, to build the request's source
// set, which every path then restricts itself to. No other non-test file
// there calls AllowedDatasets or AllowsDataset, and the plan pruning that
// once ran after planning appears in no Go file.
func TestOneSourceSet(t *testing.T) {
	fset, files := moduleFiles(t)
	var reads []string
	for rel, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "restrictPlan" {
					t.Errorf("%s names restrictPlan", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if ok && strings.HasPrefix(rel, "internal/mediate/") && !strings.HasSuffix(rel, "_test.go") &&
					(sel.Sel.Name == "AllowedDatasets" || sel.Sel.Name == "AllowsDataset") {
					reads = append(reads, fset.Position(n.Pos()).String())
				}
			}
			return true
		})
	}
	if len(reads) != 1 {
		t.Errorf("internal/mediate reads the dataset allowlist at %d places, want 1 (the source set): %v", len(reads), reads)
	}
}

// TestOneRoute pins one route from a request to its dispatches: named
// targets narrow the request's source set and take the planned route like
// any other request. No non-test file in internal/mediate builds a
// federate.Request or federate.Target literal, so the join engine is the
// only producer of dispatches — a whole fragment's stream included — and
// named targets are read only as sourceSet's argument, to build the
// source set: by queryParsed for a query, by /api/plan for its plan. The
// one other reader is appendTextKey, which writes them into the result
// cache's text key as sent: a key that replays a stored answer, not a
// route, since a hit by text dispatches nothing.
func TestOneRoute(t *testing.T) {
	fset, files := moduleFiles(t)
	for rel, file := range files {
		if !strings.HasPrefix(rel, "internal/mediate/") || strings.HasSuffix(rel, "_test.go") {
			continue
		}
		pkg := importName(file, "sparqlrw/internal/federate")
		isDispatch := func(x ast.Expr) bool {
			if arr, ok := x.(*ast.ArrayType); ok {
				x = arr.Elt
			}
			sel, ok := x.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && pkg != "" && id.Name == pkg && (sel.Sel.Name == "Request" || sel.Sel.Name == "Target")
		}
		toSourceSet := map[ast.Expr]bool{} // a call's arguments come after its call
		var textKey ast.Node
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "appendTextKey" {
				textKey = fn
			}
		}
		inTextKey := func(n ast.Node) bool {
			return textKey != nil && textKey.Pos() <= n.Pos() && n.End() <= textKey.End()
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "sourceSet" {
					for _, arg := range n.Args {
						toSourceSet[arg] = true
					}
				}
			case *ast.CompositeLit:
				if isDispatch(n.Type) {
					t.Errorf("%s builds a federate dispatch literal: dispatches come from the join engine", fset.Position(n.Pos()))
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "Targets" && !toSourceSet[n] && !inTextKey(n) {
					t.Errorf("%s reads Targets other than as sourceSet's argument", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}

// interfaceMethods are the names of standard-library interface methods
// (fmt.Stringer, error, json and text marshalling, io, http, sort, …):
// a method so named is called through the interface, by name nowhere.
var interfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "WriteString": true, "WriteTo": true, "ReadFrom": true,
	"ServeHTTP": true, "RoundTrip": true, "Header": true, "WriteHeader": true, "Flush": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// testOnlyKept are the exported calls that no non-test file reaches and
// that stay all the same, each for its reason. An entry that a non-test
// file does reach, or that names no declaration, fails the test.
var testOnlyKept = map[string]bool{
	// The reference integration of mediate's oracle tests: data translated
	// by CONSTRUCT queries compiled from the alignments (ConstructQueries,
	// reached through it), then queried.
	"core.TranslateData": true,
	// Materialised integration, the oracle tests' other reference.
	"reason.Materialiser.Materialise": true,
	// The per-pattern relevance rule that plan's tests check selection
	// against.
	"plan.Planner.PatternSources": true,
	// A level-0 class alignment, built by the tests of several packages.
	"align.ClassAlignment": true,
	// The root benchmark's synthetic alignment sets and queries.
	"workload.SyntheticAlignments": true, "workload.SyntheticBGPQuery": true,
	// The local:// transport, the tests' in-process endpoints.
	"endpoint.RegisterLocal": true, "endpoint.UnregisterLocal": true, "endpoint.LocalURL": true,
}

// TestNoTestOnlyExports keeps the program to what it runs: every
// exported function and method declared under internal/ is named by a
// non-test file of the module other than in its own declaration (cmd/,
// examples/, bench/ and the root facade count), save the calls of
// testOnlyKept and the standard interfaces' methods. References match by
// name, so a name shared with a live call lets a dead one through but
// never fails a live one.
func TestNoTestOnlyExports(t *testing.T) {
	fset, files := sourceFiles(t)
	refs := map[string][]token.Pos{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The declared name is no reference; walk the rest.
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(n ast.Node) bool { return record(refs, n) })
				}
				ast.Inspect(n.Type, func(n ast.Node) bool { return record(refs, n) })
				if n.Body != nil {
					ast.Inspect(n.Body, func(n ast.Node) bool { return record(refs, n) })
				}
				return false
			}
			return record(refs, n)
		})
	}
	var dead []string
	kept := map[string]bool{}
	for rel, file := range files {
		pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(rel)), "internal/")
		if !ok {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || (fn.Recv != nil && interfaceMethods[fn.Name.Name]) {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			live := false
			for _, pos := range refs[fn.Name.Name] {
				live = live || pos < fn.Pos() || pos >= fn.End()
			}
			if testOnlyKept[name] {
				kept[name] = !live
			} else if !live {
				dead = append(dead, fset.Position(fn.Pos()).String()+": "+name)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by tests only: delete it, or give it a caller", d)
	}
	for name := range testOnlyKept {
		if !kept[name] {
			t.Errorf("testOnlyKept holds %s, which a non-test file reaches or nothing declares", name)
		}
	}
}

// record notes an identifier's position under its name.
func record(refs map[string][]token.Pos, n ast.Node) bool {
	if id, ok := n.(*ast.Ident); ok {
		refs[id.Name] = append(refs[id.Name], id.Pos())
	}
	return true
}

// recvType is the name of a method's receiver type.
func recvType(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
