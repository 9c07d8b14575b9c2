package spec

import (
	"strings"
	"unicode"
)

// scanner is the one tokenizer behind both Lex and Parse. scan reads
// the next token straight into tok, the parser's single lookahead slot,
// so no Token is returned or copied on the way; Lex copies the slot out
// after each scan. Only newlines are counted as the scan goes: a
// token's column is its byte offset from the start of its line, plus
// one. The spec language is ASCII in practice, but every byte at or
// above 0x80 is a word byte, so unicode names lex cleanly.
type scanner struct {
	src       string
	off       int
	line      int
	lineStart int // offset of the first byte of the current line
	// tok is the token the last scan produced.
	tok Token
	// head reports that tok is a word naming a clause head.
	head bool
}

func newScanner(src string) scanner {
	return scanner{src: src, line: 1}
}

// Lex tokenises the whole input, returning the token stream terminated
// by an EOF token. Parse runs the same scanner one token at a time, so
// Lex's error is, by construction, the one Parse reports whenever the
// source fails to lex. Token text slices the source wherever possible:
// words, references and already-normalized bracket groups share src's
// backing.
func Lex(src string) ([]Token, error) {
	s := newScanner(src)
	toks := make([]Token, 0, len(src)/8)
	for {
		if err := s.scan(); err != nil {
			return nil, err
		}
		toks = append(toks, s.tok)
		if s.tok.Kind == TokenEOF {
			return toks, nil
		}
	}
}

// pos is the position of the byte at offset off, which must lie on the
// current line.
func (s *scanner) pos(off int) Pos {
	return Pos{Line: s.line, Col: off - s.lineStart + 1}
}

// Byte classes of the scanner's class table.
const (
	classDelim byte = iota // punctuation, NUL and a lone '\'
	classWord
	classSpace
)

var byteClass = func() (t [256]byte) {
	for i := range t {
		t[i] = classWord
	}
	for _, c := range "\x00=(),[]<>\\" {
		t[c] = classDelim
	}
	for _, c := range " \t\r\n" {
		t[c] = classSpace
	}
	return t
}()

// isWord reports whether s is a non-empty run of word bytes — text
// that lexes back to a single word token.
func isWord(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if byteClass[s[i]] != classWord {
			return false
		}
	}
	return true
}

// isClauseHead reports whether a word is one of the keywords that
// begin a clause. Any other key=value pair attaches to the clause
// currently being parsed.
func isClauseHead(w string) bool {
	switch len(w) {
	case 4:
		return w == "tier"
	case 5:
		return w == "param"
	case 7:
		return w == "failure"
	case 8:
		return w == "resource"
	case 9:
		return w == "component" || w == "mechanism"
	case 11:
		return w == "application"
	case 12:
		return w == "requirements"
	}
	return false
}

// skipSpaceAndComments consumes whitespace (including newlines) and
// `\\ …` comments.
func (s *scanner) skipSpaceAndComments() {
	src, off := s.src, s.off
	for off < len(src) {
		switch c := src[off]; {
		case c == '\n':
			off++
			s.line++
			s.lineStart = off
		case byteClass[c] == classSpace:
			off++
		case c == '\\' && off+1 < len(src) && src[off+1] == '\\':
			if i := strings.IndexByte(src[off:], '\n'); i >= 0 {
				off += i
			} else {
				off = len(src)
			}
		default:
			s.off = off
			return
		}
	}
	s.off = off
}

// scan reads the next token into s.tok. After an error s.tok holds no
// token, and the caller stops scanning.
func (s *scanner) scan() error {
	s.skipSpaceAndComments()
	s.head = false
	start := s.off
	t := &s.tok
	t.Pos = s.pos(start)
	if start >= len(s.src) {
		t.Kind, t.Text = TokenEOF, ""
		return nil
	}
	switch c := s.src[start]; c {
	case '=':
		t.Kind, t.Text = TokenAssign, "="
	case '(':
		t.Kind, t.Text = TokenLParen, "("
	case ')':
		t.Kind, t.Text = TokenRParen, ")"
	case ',':
		t.Kind, t.Text = TokenComma, ","
	case '[':
		return s.scanBracket()
	case '<':
		return s.scanRef()
	case ']':
		return errorAt(t.Pos, "unexpected ']' with no matching '['")
	case '>':
		return errorAt(t.Pos, "unexpected '>' with no matching '<'")
	default:
		if byteClass[c] != classWord {
			return errorAt(t.Pos, "unexpected character %q", string(c))
		}
		off := start + 1
		for off < len(s.src) && byteClass[s.src[off]] == classWord {
			off++
		}
		s.off = off
		t.Kind, t.Text = TokenWord, s.src[start:off]
		s.head = isClauseHead(t.Text)
		return nil
	}
	s.off = start + 1
	return nil
}

// scanBracket consumes a [ ... ] group, preserving the raw inner text
// (bracket groups may wrap across lines in the listings; normalization
// collapses the line breaks). Nested brackets are not part of the
// language and are rejected.
func (s *scanner) scanBracket() error {
	open := s.tok.Pos
	for off := s.off + 1; off < len(s.src); off++ {
		switch s.src[off] {
		case ']':
			s.tok.Kind, s.tok.Text = TokenBracket, normalizeSpace(s.src[s.off+1:off])
			s.off = off + 1
			return nil
		case '[':
			return errorAt(s.pos(off), "nested '[' inside bracket group")
		case '\n':
			s.line++
			s.lineStart = off + 1
		}
	}
	return errorAt(open, "unterminated bracket group")
}

// scanRef consumes a <name> mechanism reference, which may not span
// lines.
func (s *scanner) scanRef() error {
	body := s.src[s.off+1:]
	i := strings.IndexAny(body, ">\n")
	if i < 0 || body[i] == '\n' {
		return errorAt(s.tok.Pos, "unterminated <> reference")
	}
	name := strings.TrimSpace(body[:i])
	if name == "" {
		return errorAt(s.tok.Pos, "empty <> reference")
	}
	s.tok.Kind, s.tok.Text = TokenRef, name
	s.off += i + 2
	return nil
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
