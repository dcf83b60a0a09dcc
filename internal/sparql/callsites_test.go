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

// TestParseCallSites keeps the pipeline on one parse per request: between
// the fronts that accept query text and the endpoints that receive it, a
// query is a *Query, so the non-test files under internal/ that call
// sparql.Parse are the fronts (the /sparql handler, Mediator.Query, the
// text-taking helpers of mediator.go, Decomposer.Decompose) and the
// endpoint server — and no planner, decomposer stage, executor or view
// code among them.
func TestParseCallSites(t *testing.T) {
	want := []string{
		"decompose/decompose.go",
		"endpoint/endpoint.go",
		"mediate/http.go",
		"mediate/mediator.go",
		"mediate/query.go",
	}
	const internalDir = ".." // this package's parent
	var got []string
	err := filepath.WalkDir(internalDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := goparser.ParseFile(token.NewFileSet(), path, nil, goparser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sparqlrw/internal/sparql" {
				name = "sparql"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		calls := false
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && name != "" {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Parse" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						calls = true
					}
				}
			}
			return !calls
		})
		if calls {
			rel, _ := filepath.Rel(internalDir, path)
			got = append(got, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("non-test files under internal/ that call sparql.Parse:\n got %v\nwant %v", got, want)
	}
}
