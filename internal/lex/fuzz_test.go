package lex

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sparqlrw/internal/raceflag"
)

// figure1 is the paper's Figure-1 query.
const figure1 = `PREFIX id:<http://southampton.rkbexplorer.com/id/>
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT DISTINCT ?a WHERE {
	?paper akt:has-author id:person-02686 .
	?paper akt:has-author ?a .
	FILTER (!(?a = id:person-02686 ))
}`

// corpusSeeds returns the inputs of the SPARQL, Turtle and N-Triples
// parsers' fuzz corpora, each file's one string("...") value unquoted.
func corpusSeeds(t testing.TB) []string {
	var files []string
	for _, dir := range []string{"sparql/testdata/fuzz/FuzzParseFormat", "turtle/testdata/fuzz/FuzzParseTurtle", "ntriples/testdata/fuzz/FuzzParseNTriples"} {
		names, err := filepath.Glob(filepath.Join("..", dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, names...)
	}
	var out []string
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(v, ")"))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out = append(out, s)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no parser fuzz corpus found")
	}
	return out
}

// FuzzLexer holds the slicing lexer to the builder-based reference it
// replaced: on any input both produce the same tokens — kind, value, line
// and column — up to the first EOF or Illegal token.
func FuzzLexer(f *testing.F) {
	for _, src := range corpusSeeds(f) {
		f.Add(src)
	}
	for _, src := range []string{
		figure1,
		// Invalid UTF-8 inside an IRI, a string, a long string, a variable,
		// a prefixed name and a comment running to the end of the input.
		"<http://ex/a\xffb> \"x\xc3y\" '''l\xe2\x82\nz''' ?v\xffw ex:a\xc0b # c\xff",
		"?é ?xéy <http://ex/é> \"�\" ex:café.",
		// Escapes: IRIs, short and long strings, a bad escape.
		`<http://ex/é\U0001F600> "a\tb\"cé\U0001F600" '''x\'y''' "bad\q"`,
		`<http://ex/\u00zz>`,
		"\"\"\"long\nstring \"with\" quotes\nspanning lines\"\"\" ?after",
		"'''a''''b' \"\" '' x",
		// Prefixed names with trailing dots, blank nodes, numbers.
		"ex:foo. ex:foo.bar. _:b1. _:b.c. :local. ex: 5. 1.5e 2e+ .5 3.14E-2",
		"@prefix @base @en-GB2 @-x \"s\"@fr ^^ ^ & | != <= >= < > <a b>",
		"# comment\n\t?x # trailing\r\n?y\n# at end",
		"<unterminated ?x \"open",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want := refAll(src)
		got := All(src)
		if len(got) != len(want) {
			t.Fatalf("lex(%q): %d tokens, the reference %d\ngot:  %v\nwant: %v", src, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lex(%q)[%d] = %#v, the reference %#v", src, i, got[i], want[i])
			}
		}
	})
}

// TestLexAllocations pins that lexing allocates nothing when no token
// holds an escape or invalid UTF-8: every value is a slice of the source.
func TestLexAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, src := range []string{
		figure1,
		`PREFIX ex:<http://example.org/> SELECT ?s WHERE { ?s ex:p "chat"@fr , "5"^^ex:int , 2.5 , _:b1 ; a ex:C . FILTER (?s != <http://é.example/>) } # done`,
		"@prefix ex: <http://example.org/> .\nex:s ex:p '''long\n\"string\"''' , -3 , 1e6 , true .",
	} {
		if got := testing.AllocsPerRun(100, func() {
			l := New(src)
			for {
				if tok := l.Next(); tok.Kind == EOF || tok.Kind == Illegal {
					if tok.Kind == Illegal {
						t.Fatalf("lex(%q): %v", src, tok)
					}
					return
				}
			}
		}); got != 0 {
			t.Errorf("lex(%q): %.0f allocations, want 0", src, got)
		}
	}
}
