package spec

import (
	"strings"
	"unicode"
)

// lexer walks the source text and emits tokens. It is written as a
// simple byte scanner: the spec language is ASCII in practice, but word
// characters admit any non-delimiter rune so unicode names lex cleanly.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// Lex tokenises the whole input, returning the token stream terminated
// by an EOF token. Parse does not use it — the parser pulls tokens from
// next one at a time — but its error is, by construction, the one Parse
// reports whenever the source fails to lex. Token text slices the
// source wherever possible: words, references and already-normalized
// bracket groups share src's backing.
func Lex(src string) ([]Token, error) {
	lx := newLexer(src)
	toks := make([]Token, 0, len(src)/8)
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokenEOF {
			return toks, nil
		}
	}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peekAt(k int) byte {
	if l.off+k >= len(l.src) {
		return 0
	}
	return l.src[l.off+k]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipSpaceAndComments consumes whitespace (including newlines) and
// `\\ …` comments.
func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '\\' && l.peekAt(1) == '\\':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// isWord reports whether s is a non-empty run of word bytes — text
// that lexes back to a single word token.
func isWord(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isWordByte(s[i]) {
			return false
		}
	}
	return true
}

func isWordByte(c byte) bool {
	switch c {
	case 0, ' ', '\t', '\r', '\n', '=', '(', ')', ',', '[', ']', '<', '>', '\\':
		return false
	}
	return true
}

func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	start := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokenEOF, Pos: start}, nil
	}
	switch c := l.peek(); c {
	case '=':
		l.advance()
		return Token{Kind: TokenAssign, Text: "=", Pos: start}, nil
	case '(':
		l.advance()
		return Token{Kind: TokenLParen, Text: "(", Pos: start}, nil
	case ')':
		l.advance()
		return Token{Kind: TokenRParen, Text: ")", Pos: start}, nil
	case ',':
		l.advance()
		return Token{Kind: TokenComma, Text: ",", Pos: start}, nil
	case '[':
		return l.lexBracket(start)
	case '<':
		return l.lexRef(start)
	case ']':
		return Token{}, errorAt(start, "unexpected ']' with no matching '['")
	case '>':
		return Token{}, errorAt(start, "unexpected '>' with no matching '<'")
	default:
		return l.lexWord(start)
	}
}

// lexBracket consumes a [ ... ] group, preserving the raw inner text
// (bracket groups may wrap across lines in the listings; normalization
// collapses the line breaks). Nested brackets are not part of the
// language and are rejected.
func (l *lexer) lexBracket(start Pos) (Token, error) {
	l.advance() // consume '['
	o := l.off
	for l.off < len(l.src) {
		switch l.peek() {
		case ']':
			text := normalizeSpace(l.src[o:l.off])
			l.advance()
			return Token{Kind: TokenBracket, Text: text, Pos: start}, nil
		case '[':
			return Token{}, errorAt(l.pos(), "nested '[' inside bracket group")
		default:
			l.advance()
		}
	}
	return Token{}, errorAt(start, "unterminated bracket group")
}

// lexRef consumes a <name> mechanism reference.
func (l *lexer) lexRef(start Pos) (Token, error) {
	l.advance() // consume '<'
	o := l.off
	for l.off < len(l.src) {
		c := l.peek()
		if c == '>' {
			name := strings.TrimSpace(l.src[o:l.off])
			l.advance()
			if name == "" {
				return Token{}, errorAt(start, "empty <> reference")
			}
			return Token{Kind: TokenRef, Text: name, Pos: start}, nil
		}
		if c == '\n' {
			return Token{}, errorAt(start, "unterminated <> reference")
		}
		l.advance()
	}
	return Token{}, errorAt(start, "unterminated <> reference")
}

func (l *lexer) lexWord(start Pos) (Token, error) {
	o := l.off
	for l.off < len(l.src) && isWordByte(l.peek()) {
		l.advance()
	}
	if l.off == o {
		return Token{}, errorAt(start, "unexpected character %q", string(l.peek()))
	}
	return Token{Kind: TokenWord, Text: l.src[o:l.off], Pos: start}, nil
}

// normalizeSpace collapses runs of whitespace to single spaces and trims
// the ends, so bracket contents compare stably. Already-canonical ASCII
// text — the overwhelmingly common case — is returned as-is, sharing
// the source's backing.
func normalizeSpace(s string) string {
	if spaceNormalized(s) {
		return s
	}
	fields := strings.FieldsFunc(s, unicode.IsSpace)
	return strings.Join(fields, " ")
}

// spaceNormalized reports that s is pure ASCII with no whitespace other
// than single interior spaces — normalizeSpace would return it
// unchanged. Non-ASCII text conservatively reports false (it may hold
// unicode whitespace).
func spaceNormalized(s string) bool {
	prev := byte(' ')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
			return false
		}
		if c == ' ' && prev == ' ' {
			return false
		}
		prev = c
	}
	return prev != ' ' || s == ""
}
