// Package scan tokenises SQL text for the TIP engine's parser. The
// lexer is a byte-scan state machine built for the cache-miss hot path:
// a 256-entry character-class table dispatches each byte, identifier
// and number tokens are sub-slices of the source (never copies), string
// literals are sub-slices unless a doubled-quote escape forces a copy, keywords
// are resolved once at scan time through a hash-bucketed table fed by a
// rolling case-fold hash computed during the identifier scan (the
// token carries a KwID), and operators carry a SymID so the parser
// works in integer compares. Tokens are produced on demand — there is
// no eager whole-input token slice on the hot path (All remains for
// tests and the frozen reference parser).
//
// Dialect notes: identifiers and keywords are case-insensitive;
// strings are single-quoted with doubled-quote escaping; numbers are integer or
// float literals where a fraction requires a digit after the '.' ("1."
// is the number 1 followed by the qualified-name dot, and ".5" is a dot
// followed by 5 — leading-dot floats are deliberately not a literal
// form) and a malformed exponent ("1e", "2E+", "3eX") is an error
// rather than a silent re-lex; named parameters are :name; the Informix
// explicit cast is ::; -- starts a line comment.
package scan

import (
	"fmt"
	"strings"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF    Kind = iota
	Ident       // identifier or keyword (Kw distinguishes)
	Number      // integer or float literal; IsFloat distinguishes
	String      // string literal, unquoted text in Text
	Param       // :name named parameter, name in Text
	Symbol      // operator or punctuation, exact text in Text, id in Sym
)

// SymID identifies an operator or punctuation token.
type SymID uint8

// Symbol ids. SymNone marks a non-symbol token.
const (
	SymNone    SymID = iota
	SymLParen        // (
	SymRParen        // )
	SymComma         // ,
	SymDot           // .
	SymStar          // *
	SymSlash         // /
	SymPlus          // +
	SymMinus         // -
	SymPercent       // %
	SymEq            // =
	SymLt            // <
	SymGt            // >
	SymLe            // <=
	SymGe            // >=
	SymNe            // <>
	SymNeBang        // != (canonicalised to <> by the parser)
	SymConcat        // ||
	SymCast          // :: (Informix explicit cast)
	SymSemi          // ;

	NSym // number of symbol ids (array-table bound)
)

var symNames = [NSym]string{
	SymLParen: "(", SymRParen: ")", SymComma: ",", SymDot: ".",
	SymStar: "*", SymSlash: "/", SymPlus: "+", SymMinus: "-",
	SymPercent: "%", SymEq: "=", SymLt: "<", SymGt: ">", SymLe: "<=",
	SymGe: ">=", SymNe: "<>", SymNeBang: "!=", SymConcat: "||",
	SymCast: "::", SymSemi: ";",
}

// String returns the symbol's exact source spelling.
func (s SymID) String() string {
	if s < NSym {
		return symNames[s]
	}
	return ""
}

// Token is one lexical unit. Text is a sub-slice of the source for
// Ident, Number and Param tokens (and for String tokens without doubled-quote
// escapes), so a retained token keeps its source string alive. The
// struct is kept to 24 bytes — the parser's token window is copied on
// every advance.
type Token struct {
	Text    string // identifier text, literal value, or symbol
	Pos     int32  // byte offset in the input
	Kind    Kind
	Kw      KwID  // keyword id for Ident tokens (KwNone otherwise)
	Sym     SymID // symbol id for Symbol tokens (SymNone otherwise)
	IsFloat bool  // for Number: contains '.' or exponent
}

// Keyword returns the upper-cased text for keyword comparison.
func (t Token) Keyword() string { return strings.ToUpper(t.Text) }

// IsKeyword reports whether the token is an identifier matching kw
// (case-insensitive).
func (t Token) IsKeyword(kw string) bool {
	return t.Kind == Ident && strings.EqualFold(t.Text, kw)
}

// IsSymbol reports whether the token is the exact symbol s.
func (t Token) IsSymbol(s string) bool { return t.Kind == Symbol && t.Text == s }

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case String:
		return fmt.Sprintf("'%s'", t.Text)
	case Param:
		return ":" + t.Text
	default:
		return t.Text
	}
}

// Character classes for the dispatch table.
const (
	clIllegal byte = iota
	clSpace
	clIdent // identifier start: letter or '_'
	clDigit
	clQuote // '
	clColon // : (cast or parameter)
	clSym   // operator/punctuation start
)

var (
	classTab [256]byte // byte → character class
	identTab [256]bool // identifier continuation bytes
)

func init() {
	for _, c := range []byte{' ', '\t', '\n', '\r'} {
		classTab[c] = clSpace
	}
	for c := 'a'; c <= 'z'; c++ {
		classTab[c], classTab[c-'a'+'A'] = clIdent, clIdent
	}
	classTab['_'] = clIdent
	for c := '0'; c <= '9'; c++ {
		classTab[c] = clDigit
	}
	classTab['\''] = clQuote
	classTab[':'] = clColon
	for _, c := range []byte("()*,./+-%=<>;!|") {
		classTab[c] = clSym
	}
	for c := 0; c < 256; c++ {
		cl := classTab[c]
		identTab[c] = cl == clIdent || cl == clDigit
	}
}

// Lexer produces tokens from SQL text. The zero value is ready after
// Init; New allocates one for callers that want a pointer.
type Lexer struct {
	src string
	pos int
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Init resets the lexer to the start of src (allocation-free reuse).
func (l *Lexer) Init(src string) { l.src, l.pos = src, 0 }

// fill writes every Token field through t with plain stores. Assigning
// a composite literal (*t = Token{...}) through a pointer makes the
// compiler build the token in a stack temporary and copy it out via a
// write-barrier move; the temporary's overlapping zero/store/reload
// pattern stalls store forwarding on the lexer's hottest line. Every
// field is written because the parser's token windows are reused
// across fetches.
func fill(t *Token, kind Kind, text string, pos int32) {
	t.Text = text
	t.Pos = pos
	t.Kind = kind
	t.Kw = KwNone
	t.Sym = SymNone
	t.IsFloat = false
}

// Next fills t with the next token, or returns an error for
// unterminated strings, malformed exponents and unexpected bytes. It
// writes into a caller-provided token (instead of returning one) so the
// parser's token window is filled in place with no intermediate copies.
func (l *Lexer) Next(t *Token) error {
	src := l.src
	pos := l.pos
	// Skip whitespace and -- line comments. Plain ' ' is checked
	// before the class table: it is the overwhelmingly common
	// separator, and the immediate compare dodges a table load.
	for pos < len(src) {
		c := src[pos]
		if c == ' ' || classTab[c] == clSpace {
			pos++
			continue
		}
		if c == '-' && pos+1 < len(src) && src[pos+1] == '-' {
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
			continue
		}
		break
	}
	if pos >= len(src) {
		l.pos = pos
		fill(t, EOF, "", int32(pos))
		return nil
	}
	start := pos
	c := src[pos]
	switch classTab[c] {
	case clIdent:
		// The rolling case-fold hash feeds the keyword table lookup; it
		// costs two or three instructions per byte and saves the lookup
		// a second pass over the text.
		h := uint32(c | 0x20)
		pos++
		for pos < len(src) && identTab[src[pos]] {
			h = h*31 + uint32(src[pos]|0x20)
			pos++
		}
		l.pos = pos
		text := src[start:pos]
		kw := KwNone
		if n := len(text); n >= 2 && n <= maxKwLen {
			kw = lookupKwHash(text, h)
		}
		fill(t, Ident, text, int32(start))
		t.Kw = kw
		return nil
	case clDigit:
		return l.number(t, start)
	case clQuote:
		return l.str(t, start)
	case clColon:
		// "::" is the explicit cast; ":name" is a parameter.
		if pos+1 < len(src) && src[pos+1] == ':' {
			l.pos = pos + 2
			fill(t, Symbol, "::", int32(start))
			t.Sym = SymCast
			return nil
		}
		pos++
		ns := pos
		for pos < len(src) && identTab[src[pos]] {
			pos++
		}
		if pos == ns {
			return l.errAt(start, "bare ':'")
		}
		l.pos = pos
		fill(t, Param, src[ns:pos], int32(start))
		return nil
	case clSym:
		sym := SymNone
		n := 1
		switch c {
		case '(':
			sym = SymLParen
		case ')':
			sym = SymRParen
		case ',':
			sym = SymComma
		case '.':
			sym = SymDot
		case '*':
			sym = SymStar
		case '/':
			sym = SymSlash
		case '+':
			sym = SymPlus
		case '-':
			sym = SymMinus
		case '%':
			sym = SymPercent
		case ';':
			sym = SymSemi
		case '=':
			sym = SymEq
		case '<':
			sym = SymLt
			if pos+1 < len(src) {
				switch src[pos+1] {
				case '=':
					sym, n = SymLe, 2
				case '>':
					sym, n = SymNe, 2
				}
			}
		case '>':
			sym = SymGt
			if pos+1 < len(src) && src[pos+1] == '=' {
				sym, n = SymGe, 2
			}
		case '!':
			if pos+1 < len(src) && src[pos+1] == '=' {
				sym, n = SymNeBang, 2
			}
		case '|':
			if pos+1 < len(src) && src[pos+1] == '|' {
				sym, n = SymConcat, 2
			}
		}
		if sym == SymNone { // bare '!' or '|'
			return l.errAt(start, "unexpected character %q", string(c))
		}
		l.pos = pos + n
		fill(t, Symbol, symNames[sym], int32(start))
		t.Sym = sym
		return nil
	default:
		return l.errAt(start, "unexpected character %q", string(c))
	}
}

// All tokenises the whole input (tests and the frozen reference parser;
// the engine's parser pulls tokens on demand instead).
func (l *Lexer) All() ([]Token, error) {
	var out []Token
	for {
		var t Token
		if err := l.Next(&t); err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

// number scans an integer or float literal starting at start. A '.'
// only opens a fraction when a digit follows ("1." stays an integer
// before a qualified-name dot); an 'e'/'E' exponent must have at least
// one digit — "1e", "2E+" and "1eX" are errors, not a number silently
// followed by a stray identifier.
func (l *Lexer) number(t *Token, start int) error {
	src := l.src
	pos := start
	for pos < len(src) && src[pos] >= '0' && src[pos] <= '9' {
		pos++
	}
	isFloat := false
	if pos+1 < len(src) && src[pos] == '.' && src[pos+1] >= '0' && src[pos+1] <= '9' {
		isFloat = true
		pos += 2
		for pos < len(src) && src[pos] >= '0' && src[pos] <= '9' {
			pos++
		}
	}
	if pos < len(src) && (src[pos] == 'e' || src[pos] == 'E') {
		j := pos + 1
		if j < len(src) && (src[j] == '+' || src[j] == '-') {
			j++
		}
		if j >= len(src) || src[j] < '0' || src[j] > '9' {
			return l.errAt(start, "malformed number %q: exponent has no digits", src[start:j])
		}
		isFloat = true
		pos = j + 1
		for pos < len(src) && src[pos] >= '0' && src[pos] <= '9' {
			pos++
		}
	}
	l.pos = pos
	fill(t, Number, src[start:pos], int32(start))
	t.IsFloat = isFloat
	return nil
}

// str scans a single-quoted string literal. The fast path returns a
// sub-slice of the source; only a doubled-quote escape forces a copy.
func (l *Lexer) str(t *Token, start int) error {
	src := l.src
	pos := start + 1
	for pos < len(src) {
		if src[pos] == '\'' {
			if pos+1 < len(src) && src[pos+1] == '\'' {
				return l.strEscaped(t, start, pos)
			}
			l.pos = pos + 1
			fill(t, String, src[start+1:pos], int32(start))
			return nil
		}
		pos++
	}
	return l.errAt(start, "unterminated string starting")
}

// strEscaped finishes a string literal whose first doubled-quote escape sits at
// firstEsc, building the unescaped text in a copy.
func (l *Lexer) strEscaped(t *Token, start, firstEsc int) error {
	src := l.src
	var b strings.Builder
	b.WriteString(src[start+1 : firstEsc+1]) // up to and including one quote
	pos := firstEsc + 2
	for pos < len(src) {
		c := src[pos]
		if c == '\'' {
			if pos+1 < len(src) && src[pos+1] == '\'' {
				b.WriteByte('\'')
				pos += 2
				continue
			}
			l.pos = pos + 1
			fill(t, String, b.String(), int32(start))
			return nil
		}
		b.WriteByte(c)
		pos++
	}
	return l.errAt(start, "unterminated string starting")
}

// errAt formats a lexical error with line:column (and the raw offset,
// which scripts and tests key on).
func (l *Lexer) errAt(off int, format string, args ...any) error {
	line, col := LineCol(l.src, off)
	return fmt.Errorf("sql: %s at line %d:%d (offset %d)",
		fmt.Sprintf(format, args...), line, col, off)
}

// LineCol converts a byte offset in src to 1-based line and column
// numbers. Error paths only — the hot path never touches it.
func LineCol(src string, off int) (line, col int) {
	if off > len(src) {
		off = len(src)
	}
	line = 1
	last := -1
	for i := 0; i < off; i++ {
		if src[i] == '\n' {
			line++
			last = i
		}
	}
	return line, off - last
}
