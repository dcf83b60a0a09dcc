package lex

// The lexer as it was before tokens became slices of the source: every
// IRI, string, variable and name is built rune by rune in a
// strings.Builder. It is kept only as the reference FuzzLexer holds the
// slicing lexer to; its token stream (kind, value, line, column) is the
// specification.

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type refLexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newRef(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

func (l *refLexer) peek() rune {
	if l.pos >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func (l *refLexer) peekAt(off int) rune {
	p := l.pos + off
	if p >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[p:])
	return r
}

func (l *refLexer) advance() rune {
	if l.pos >= len(l.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *refLexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		if r == '#' {
			for r != '\n' && r != -1 {
				l.advance()
				r = l.peek()
			}
			continue
		}
		if r == ' ' || r == '\t' || r == '\r' || r == '\n' {
			l.advance()
			continue
		}
		return
	}
}

func (l *refLexer) tok(k Kind, val string, line, col int) Token {
	return Token{Kind: k, Val: val, Line: line, Col: col}
}

func (l *refLexer) illegal(line, col int, format string, args ...any) Token {
	return Token{Kind: Illegal, Val: fmt.Sprintf(format, args...), Line: line, Col: col}
}

// Next returns the next token, or an EOF/Illegal token.
func (l *refLexer) Next() Token {
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
		if refIsDigit(l.peekAt(1)) {
			return l.lexNumber(line, col)
		}
		l.advance()
		return l.tok(Dot, "", line, col)
	}
	if refIsDigit(r) {
		return l.lexNumber(line, col)
	}
	if refIsPNCharsBase(r) || r == ':' {
		return l.lexIdentOrPName(line, col)
	}
	l.advance()
	return l.illegal(line, col, "unexpected character %q", r)
}

// lexLessOrIRI disambiguates '<' between an IRI reference and the less-than
// operator: if a '>' is reachable without hitting a character that is
// illegal inside an IRIREF, the token is an IRI reference.
func (l *refLexer) lexLessOrIRI(line, col int) Token {
	// Scan ahead in the raw string without consuming.
	i := l.pos + 1
	for i < len(l.src) {
		c := l.src[i]
		if c == '>' {
			return l.consumeIRIRef(line, col)
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

func (l *refLexer) consumeIRIRef(line, col int) Token {
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

func (l *refLexer) readUnicodeEscape(long bool) (rune, bool) {
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

func (l *refLexer) lexString(line, col int) Token {
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
	var b strings.Builder
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

func (l *refLexer) lexVar(line, col int) Token {
	l.advance() // ? or $
	var b strings.Builder
	for {
		r := l.peek()
		if refIsPNChars(r) && r != '-' && r != '.' || refIsDigit(r) {
			l.advance()
			b.WriteRune(r)
			continue
		}
		break
	}
	if b.Len() == 0 {
		return l.illegal(line, col, "empty variable name")
	}
	return l.tok(Var, b.String(), line, col)
}

func (l *refLexer) lexAt(line, col int) Token {
	l.advance() // @
	var b strings.Builder
	for {
		r := l.peek()
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			l.advance()
			b.WriteRune(r)
			continue
		}
		if r == '-' && b.Len() > 0 {
			l.advance()
			b.WriteRune(r)
			continue
		}
		break
	}
	// continue over digits for subtags like @en-us2
	for refIsDigit(l.peek()) {
		b.WriteRune(l.advance())
	}
	v := b.String()
	if v == "" {
		return l.illegal(line, col, "empty @ token")
	}
	if v == "prefix" || v == "base" {
		return l.tok(AtKeyword, v, line, col)
	}
	return l.tok(LangTag, v, line, col)
}

func (l *refLexer) lexBlank(line, col int) Token {
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
func (l *refLexer) lexLocalName() string {
	start := l.pos
	for {
		r := l.peek()
		if refIsPNChars(r) || refIsDigit(r) || r == '.' || r == '%' {
			l.advance()
			continue
		}
		break
	}
	s := l.src[start:l.pos]
	// Back off trailing dots: they terminate statements in Turtle.
	for strings.HasSuffix(s, ".") {
		s = s[:len(s)-1]
		l.pos--
		l.col--
	}
	return s
}

func (l *refLexer) lexIdentOrPName(line, col int) Token {
	var b strings.Builder
	for {
		r := l.peek()
		if refIsPNChars(r) || (b.Len() > 0 && refIsDigit(r)) || (b.Len() == 0 && refIsDigit(r)) {
			l.advance()
			b.WriteRune(r)
			continue
		}
		break
	}
	prefix := b.String()
	if l.peek() == ':' {
		l.advance()
		// PNameNS or PNameLN depending on what follows.
		r := l.peek()
		if refIsPNChars(r) || refIsDigit(r) || r == '%' {
			local := l.lexLocalName()
			return l.tok(PNameLN, prefix+":"+local, line, col)
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

func (l *refLexer) lexNumber(line, col int) Token {
	start := l.pos
	kind := Integer
	for refIsDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' && refIsDigit(l.peekAt(1)) {
		kind = Decimal
		l.advance()
		for refIsDigit(l.peek()) {
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
		if refIsDigit(l.peek()) {
			kind = Double
			for refIsDigit(l.peek()) {
				l.advance()
			}
		} else {
			l.pos = save
		}
	}
	return l.tok(kind, l.src[start:l.pos], line, col)
}

func refIsDigit(r rune) bool { return r >= '0' && r <= '9' }

func refIsPNCharsBase(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

// refIsPNChars accepts name characters: letters, '_', '-' (digits are handled
// separately by callers that allow them).
func refIsPNChars(r rune) bool {
	return refIsPNCharsBase(r) || r == '-'
}

// refAll tokenises src with the reference lexer, up to and including the
// first EOF or Illegal token.
func refAll(src string) []Token {
	l := newRef(src)
	var out []Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == EOF || t.Kind == Illegal {
			return out
		}
	}
}
