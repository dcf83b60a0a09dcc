// Package lex provides a shared tokeniser for the two concrete syntaxes the
// repository parses: Turtle (data and alignment KBs) and SPARQL (queries).
// The token inventories of the two languages overlap almost entirely, so a
// single lexer serves both; language-specific keywords are lexed as Ident
// tokens and interpreted case-insensitively by the parsers.
//
// The lexer allocates only for a token that holds an escape or invalid
// UTF-8, and for an Illegal token's message: every other token's value is
// a slice of the source, so a parser that keeps a value past the parse
// copies it (strings.Clone) rather than pinning the whole source.
package lex

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind enumerates token kinds.
type Kind uint8

// Token kinds. Punctuation kinds carry no value; the others carry their
// text in Token.Val, without the delimiters, and Illegal carries the error
// message.
const (
	EOF Kind = iota
	Illegal
	IRIRef    // <...>; Val = IRI content, \u and \U escapes decoded
	PNameNS   // "prefix:"; Val = prefix (may be empty)
	PNameLN   // prefix:local; Val = "prefix:local" verbatim
	BlankNode // _:label; Val = label
	Var       // ?name or $name; Val = name
	String    // quoted string; Val = content, escapes decoded
	LangTag   // @tag; Val = tag
	AtKeyword // @prefix or @base; Val = "prefix"/"base"
	Integer   // Val = digits
	Decimal   // Val = digits.digits
	Double    // Val = mantissa+exponent
	Ident     // bare word (keywords, "a", "true", "false")

	LBrace    // {
	RBrace    // }
	LParen    // (
	RParen    // )
	LBracket  // [
	RBracket  // ]
	Dot       // .
	Semicolon // ;
	Comma     // ,
	HatHat    // ^^
	Eq        // =
	Neq       // !=
	Lt        // <
	Gt        // >
	Le        // <=
	Ge        // >=
	Not       // !
	AndAnd    // &&
	OrOr      // ||
	Plus      // +
	Minus     // -
	Star      // *
	Slash     // /
)

var kindNames = map[Kind]string{
	EOF: "EOF", Illegal: "illegal", IRIRef: "IRI", PNameNS: "prefix",
	PNameLN: "prefixed-name", BlankNode: "blank-node", Var: "variable",
	String: "string", LangTag: "lang-tag", AtKeyword: "@keyword",
	Integer: "integer", Decimal: "decimal", Double: "double", Ident: "identifier",
	LBrace: "{", RBrace: "}", LParen: "(", RParen: ")", LBracket: "[",
	RBracket: "]", Dot: ".", Semicolon: ";", Comma: ",", HatHat: "^^",
	Eq: "=", Neq: "!=", Lt: "<", Gt: ">", Le: "<=", Ge: ">=", Not: "!",
	AndAnd: "&&", OrOr: "||", Plus: "+", Minus: "-", Star: "*", Slash: "/",
}

// String returns a readable kind name for error messages.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Token is a lexed token with source position (1-based line and column,
// counted in runes). Val is a slice of the source unless the token held an
// escape, which is decoded, or invalid UTF-8, which reads as U+FFFD inside
// an IRI or a string; either way a parser that keeps Val copies it.
type Token struct {
	Kind Kind
	Val  string
	Line int
	Col  int
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IRIRef:
		return "<" + t.Val + ">"
	case Var:
		return "?" + t.Val
	case BlankNode:
		return "_:" + t.Val
	case String:
		return fmt.Sprintf("%q", t.Val)
	case Ident, PNameLN, PNameNS, Integer, Decimal, Double, LangTag, AtKeyword, Illegal:
		return t.Val
	default:
		return t.Kind.String()
	}
}

// Lexer tokenises an input string. It is a simple single-pass scanner; the
// parsers drive it through Next, their current token serving as the
// lookahead. It scans bytes and decodes a rune only at a byte of 0x80 or
// above; line and column count runes.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// New returns a lexer over src.
func New(src string) Lexer {
	return Lexer{src: src, line: 1, col: 1}
}

// peekRune returns the rune at the current position and its width, or
// (-1, 0) at the end of the input. Invalid UTF-8 reads as
// (utf8.RuneError, 1).
func (l *Lexer) peekRune() (rune, int) {
	if l.pos >= len(l.src) {
		return -1, 0
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

func (l *Lexer) peek() rune {
	r, _ := l.peekRune()
	return r
}

func (l *Lexer) peekAt(off int) rune {
	p := l.pos + off
	if p >= len(l.src) {
		return -1
	}
	if c := l.src[p]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[p:])
	return r
}

func (l *Lexer) advance() rune {
	r, w := l.peekRune()
	if w == 0 {
		return -1
	}
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

// skipWhile advances over the run of runes that accept admits, none of
// which is a newline.
func (l *Lexer) skipWhile(accept func(rune) bool) {
	for {
		r, w := l.peekRune()
		if w == 0 || !accept(r) {
			return
		}
		l.pos += w
		l.col++
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '#':
			// The column restarts at the newline, so only a comment that
			// runs to the end of the input has its runes counted.
			rest := l.src[l.pos:]
			if i := strings.IndexByte(rest, '\n'); i >= 0 {
				l.pos += i
			} else {
				l.pos = len(l.src)
				l.col += utf8.RuneCountInString(rest)
			}
		case ' ', '\t', '\r':
			l.pos++
			l.col++
		case '\n':
			l.pos++
			l.line++
			l.col = 1
		default:
			return
		}
	}
}

func (l *Lexer) tok(k Kind, val string, line, col int) Token {
	return Token{Kind: k, Val: val, Line: line, Col: col}
}

func (l *Lexer) illegal(line, col int, format string, args ...any) Token {
	return Token{Kind: Illegal, Val: fmt.Sprintf(format, args...), Line: line, Col: col}
}

// Next returns the next token, or an EOF/Illegal token.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	r := l.peek()
	if r == -1 {
		return l.tok(EOF, "", line, col)
	}
	switch r {
	case '{':
		l.advance()
		return l.tok(LBrace, "", line, col)
	case '}':
		l.advance()
		return l.tok(RBrace, "", line, col)
	case '(':
		l.advance()
		return l.tok(LParen, "", line, col)
	case ')':
		l.advance()
		return l.tok(RParen, "", line, col)
	case '[':
		l.advance()
		return l.tok(LBracket, "", line, col)
	case ']':
		l.advance()
		return l.tok(RBracket, "", line, col)
	case ';':
		l.advance()
		return l.tok(Semicolon, "", line, col)
	case ',':
		l.advance()
		return l.tok(Comma, "", line, col)
	case '=':
		l.advance()
		return l.tok(Eq, "", line, col)
	case '*':
		l.advance()
		return l.tok(Star, "", line, col)
	case '/':
		l.advance()
		return l.tok(Slash, "", line, col)
	case '+':
		l.advance()
		return l.tok(Plus, "", line, col)
	case '-':
		l.advance()
		return l.tok(Minus, "", line, col)
	case '!':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return l.tok(Neq, "", line, col)
		}
		return l.tok(Not, "", line, col)
	case '&':
		l.advance()
		if l.peek() == '&' {
			l.advance()
			return l.tok(AndAnd, "", line, col)
		}
		return l.illegal(line, col, "unexpected '&'")
	case '|':
		l.advance()
		if l.peek() == '|' {
			l.advance()
			return l.tok(OrOr, "", line, col)
		}
		return l.illegal(line, col, "unexpected '|'")
	case '^':
		l.advance()
		if l.peek() == '^' {
			l.advance()
			return l.tok(HatHat, "", line, col)
		}
		return l.illegal(line, col, "unexpected '^' (expected '^^')")
	case '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return l.tok(Ge, "", line, col)
		}
		return l.tok(Gt, "", line, col)
	case '<':
		return l.lexLessOrIRI(line, col)
	case '"', '\'':
		return l.lexString(line, col)
	case '?', '$':
		return l.lexVar(line, col)
	case '@':
		return l.lexAt(line, col)
	case '_':
		if l.peekAt(1) == ':' {
			return l.lexBlank(line, col)
		}
		return l.lexIdentOrPName(line, col)
	case '.':
		// "." begins a decimal only when followed by a digit (".5"); in
		// Turtle a bare dot is the statement terminator.
		if isDigit(l.peekAt(1)) {
			return l.lexNumber(line, col)
		}
		l.advance()
		return l.tok(Dot, "", line, col)
	}
	if isDigit(r) {
		return l.lexNumber(line, col)
	}
	if isPNCharsBase(r) || r == ':' {
		return l.lexIdentOrPName(line, col)
	}
	l.advance()
	return l.illegal(line, col, "unexpected character %q", r)
}

// lexLessOrIRI disambiguates '<' between an IRI reference and the less-than
// operator: if a '>' is reachable without hitting a character that is
// illegal inside an IRIREF, the token is an IRI reference.
func (l *Lexer) lexLessOrIRI(line, col int) Token {
	// Scan ahead in the raw string without consuming.
	i := l.pos + 1
	for i < len(l.src) {
		c := l.src[i]
		if c == '>' {
			return l.consumeIRIRef(i, line, col)
		}
		if c <= ' ' || c == '<' || c == '"' || c == '{' || c == '}' || c == '|' || c == '^' || c == '`' {
			break
		}
		i++
	}
	l.advance() // consume '<'
	if l.peek() == '=' {
		l.advance()
		return l.tok(Le, "", line, col)
	}
	return l.tok(Lt, "", line, col)
}

// consumeIRIRef consumes the IRI reference whose closing '>' is at end.
// The content holds no newline, so it moves the column only.
func (l *Lexer) consumeIRIRef(end, line, col int) Token {
	body := l.src[l.pos+1 : end]
	if strings.IndexByte(body, '\\') >= 0 || !utf8.ValidString(body) {
		return l.decodeIRIRef(line, col)
	}
	l.pos = end + 1
	l.col += utf8.RuneCountInString(body) + 2
	return l.tok(IRIRef, body, line, col)
}

// decodeIRIRef consumes an IRI reference that holds an escape or invalid
// UTF-8 (written out as U+FFFD), building its value.
func (l *Lexer) decodeIRIRef(line, col int) Token {
	l.advance() // '<'
	var b strings.Builder
	for {
		r := l.peek()
		switch {
		case r == -1:
			return l.illegal(line, col, "unterminated IRI reference")
		case r == '>':
			l.advance()
			return l.tok(IRIRef, b.String(), line, col)
		case r == '\\':
			l.advance()
			esc := l.peek()
			if esc == 'u' || esc == 'U' {
				l.advance()
				rr, ok := l.readUnicodeEscape(esc == 'U')
				if !ok {
					return l.illegal(line, col, "bad unicode escape in IRI")
				}
				b.WriteRune(rr)
				continue
			}
			return l.illegal(line, col, "bad escape %q in IRI", esc)
		default:
			l.advance()
			b.WriteRune(r)
		}
	}
}

func (l *Lexer) readUnicodeEscape(long bool) (rune, bool) {
	n := 4
	if long {
		n = 8
	}
	var v rune
	for i := 0; i < n; i++ {
		r := l.peek()
		var d rune
		switch {
		case r >= '0' && r <= '9':
			d = r - '0'
		case r >= 'a' && r <= 'f':
			d = r - 'a' + 10
		case r >= 'A' && r <= 'F':
			d = r - 'A' + 10
		default:
			return 0, false
		}
		l.advance()
		v = v*16 + d
	}
	return v, true
}

func (l *Lexer) lexString(line, col int) Token {
	quote := l.advance() // " or '
	long := false
	if l.peek() == quote && l.peekAt(1) == quote {
		// Either a long string delimiter or an empty string followed by
		// something else. Check the third char.
		l.advance()
		if l.peek() == quote {
			l.advance()
			long = true
		} else {
			return l.tok(String, "", line, col) // empty short string
		}
	}
	start := l.pos
	for {
		r, w := l.peekRune()
		switch {
		case r == -1:
			return l.illegal(line, col, "unterminated string literal")
		case !long && (r == '\n' || r == '\r'):
			return l.illegal(line, col, "newline in string literal")
		case r == quote && !long:
			val := l.src[start:l.pos]
			l.advance()
			return l.tok(String, val, line, col)
		case r == quote && l.peekAt(1) == quote && l.peekAt(2) == quote:
			val := l.src[start:l.pos]
			l.pos += 3
			l.col += 3
			return l.tok(String, val, line, col)
		case r == '\\' || r == utf8.RuneError && w == 1:
			return l.decodeString(start, quote, long, line, col)
		}
		l.advance()
	}
}

// decodeString finishes a string literal from the escape or invalid UTF-8
// (written out as U+FFFD) at the current position, building its value from
// the verbatim run src[start:pos] before it.
func (l *Lexer) decodeString(start int, quote rune, long bool, line, col int) Token {
	var b strings.Builder
	b.WriteString(l.src[start:l.pos])
	for {
		r := l.peek()
		if r == -1 {
			return l.illegal(line, col, "unterminated string literal")
		}
		if !long && (r == '\n' || r == '\r') {
			return l.illegal(line, col, "newline in string literal")
		}
		if r == quote {
			if !long {
				l.advance()
				return l.tok(String, b.String(), line, col)
			}
			if l.peekAt(1) == quote && l.peekAt(2) == quote {
				l.advance()
				l.advance()
				l.advance()
				return l.tok(String, b.String(), line, col)
			}
			l.advance()
			b.WriteRune(r)
			continue
		}
		if r == '\\' {
			l.advance()
			esc := l.advance()
			switch esc {
			case 't':
				b.WriteByte('\t')
			case 'b':
				b.WriteByte('\b')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 'f':
				b.WriteByte('\f')
			case '"', '\'', '\\':
				b.WriteRune(esc)
			case 'u', 'U':
				rr, ok := l.readUnicodeEscape(esc == 'U')
				if !ok {
					return l.illegal(line, col, "bad unicode escape in string")
				}
				b.WriteRune(rr)
			default:
				return l.illegal(line, col, "bad string escape %q", esc)
			}
			continue
		}
		l.advance()
		b.WriteRune(r)
	}
}

func (l *Lexer) lexVar(line, col int) Token {
	l.advance() // ? or $
	start := l.pos
	l.skipWhile(isVarChar)
	if l.pos == start {
		return l.illegal(line, col, "empty variable name")
	}
	return l.tok(Var, l.src[start:l.pos], line, col)
}

func (l *Lexer) lexAt(line, col int) Token {
	l.advance() // @
	start := l.pos
	for {
		r := l.peek()
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '-' && l.pos > start {
			l.pos++
			l.col++
			continue
		}
		break
	}
	// continue over digits for subtags like @en-us2
	l.skipWhile(isDigit)
	v := l.src[start:l.pos]
	if v == "" {
		return l.illegal(line, col, "empty @ token")
	}
	if v == "prefix" || v == "base" {
		return l.tok(AtKeyword, v, line, col)
	}
	return l.tok(LangTag, v, line, col)
}

func (l *Lexer) lexBlank(line, col int) Token {
	l.advance() // _
	l.advance() // :
	label := l.lexLocalName()
	if label == "" {
		return l.illegal(line, col, "empty blank node label")
	}
	return l.tok(BlankNode, label, line, col)
}

// lexLocalName consumes a PN_LOCAL-style run: letters, digits, '_', '-',
// and interior dots (a trailing dot run is put back for the Dot token).
func (l *Lexer) lexLocalName() string {
	start := l.pos
	l.skipWhile(isLocalChar)
	s := l.src[start:l.pos]
	// Back off trailing dots: they terminate statements in Turtle.
	for strings.HasSuffix(s, ".") {
		s = s[:len(s)-1]
		l.pos--
		l.col--
	}
	return s
}

func (l *Lexer) lexIdentOrPName(line, col int) Token {
	start := l.pos
	l.skipWhile(isNameChar)
	prefix := l.src[start:l.pos]
	if l.peek() == ':' {
		l.advance()
		// PNameNS or PNameLN depending on what follows.
		r := l.peek()
		if isPNChars(r) || isDigit(r) || r == '%' {
			l.lexLocalName()
			return l.tok(PNameLN, l.src[start:l.pos], line, col)
		}
		return l.tok(PNameNS, prefix, line, col)
	}
	if prefix == "" {
		l.advance()
		return l.illegal(line, col, "unexpected character %q", l.peek())
	}
	// Bare identifier: keyword, boolean, or Turtle "a".
	return l.tok(Ident, prefix, line, col)
}

func (l *Lexer) lexNumber(line, col int) Token {
	start := l.pos
	kind := Integer
	for isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		kind = Decimal
		l.advance()
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	if r := l.peek(); r == 'e' || r == 'E' {
		// exponent requires digits (optionally signed)
		save := l.pos
		l.advance()
		if r2 := l.peek(); r2 == '+' || r2 == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			kind = Double
			for isDigit(l.peek()) {
				l.advance()
			}
		} else {
			l.pos = save
		}
	}
	return l.tok(kind, l.src[start:l.pos], line, col)
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

func isPNCharsBase(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

// isPNChars accepts name characters: letters, '_', '-' (digits are handled
// separately by callers that allow them).
func isPNChars(r rune) bool {
	return isPNCharsBase(r) || r == '-'
}

// isVarChar accepts the characters of a variable name.
func isVarChar(r rune) bool { return isDigit(r) || isPNCharsBase(r) }

// isNameChar accepts the characters of a bare word or a prefix.
func isNameChar(r rune) bool { return isDigit(r) || isPNChars(r) }

// isLocalChar accepts the characters of a local name or blank-node label.
func isLocalChar(r rune) bool { return isNameChar(r) || r == '.' || r == '%' }

// All tokenises the whole input, primarily for tests.
func All(src string) []Token {
	l := New(src)
	var out []Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == EOF || t.Kind == Illegal {
			return out
		}
	}
}
