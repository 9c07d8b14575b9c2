package spec

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexSimpleAttr(t *testing.T) {
	toks, err := Lex("component=machineA cost=0")
	if err != nil {
		t.Fatalf("Lex error: %v", err)
	}
	want := []TokenKind{TokenWord, TokenAssign, TokenWord, TokenWord, TokenAssign, TokenWord, TokenEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d kind = %v, want %v", i, got[i], want[i])
		}
	}
	if toks[0].Text != "component" || toks[2].Text != "machineA" {
		t.Errorf("unexpected words: %q %q", toks[0].Text, toks[2].Text)
	}
}

func TestLexBracketGroup(t *testing.T) {
	toks, err := Lex("cost([inactive,active])=[2400 2640]")
	if err != nil {
		t.Fatalf("Lex error: %v", err)
	}
	// cost ( [inactive,active] ) = [2400 2640] EOF
	want := []TokenKind{TokenWord, TokenLParen, TokenBracket, TokenRParen, TokenAssign, TokenBracket, TokenEOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d kind = %v, want %v (toks=%v)", i, got[i], want[i], toks)
		}
	}
	if toks[2].Text != "inactive,active" {
		t.Errorf("bracket contents = %q", toks[2].Text)
	}
	if toks[5].Text != "2400 2640" {
		t.Errorf("bracket contents = %q", toks[5].Text)
	}
}

func TestLexRef(t *testing.T) {
	toks, err := Lex("mttr=<maintenanceA>")
	if err != nil {
		t.Fatalf("Lex error: %v", err)
	}
	if toks[2].Kind != TokenRef || toks[2].Text != "maintenanceA" {
		t.Errorf("ref token = %+v", toks[2])
	}
}

func TestLexComments(t *testing.T) {
	src := "\\\\ Units - s:seconds\ncomponent=linux cost=0 \\\\ trailing\nfailure=soft"
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex error: %v", err)
	}
	var words []string
	for _, tok := range toks {
		if tok.Kind == TokenWord {
			words = append(words, tok.Text)
		}
	}
	want := []string{"component", "linux", "cost", "0", "failure", "soft"}
	if strings.Join(words, " ") != strings.Join(want, " ") {
		t.Errorf("words = %v, want %v", words, want)
	}
}

// TestLexPositions pins every token's line:col, the position each bind
// error prints. Columns count bytes from the start of the line, so a
// tab, a '\r' before a newline and each byte of a UTF-8 rune is one
// column.
func TestLexPositions(t *testing.T) {
	tests := []struct{ name, src, want string }{
		{"lines", "a=1\nbb=2", "1:1 1:2 1:3 2:1 2:3 2:4 2:5"},
		{"crlf", "a=1\r\nbb=2\r\n", "1:1 1:2 1:3 2:1 2:3 2:4 3:1"},
		{"tab", "a=\t1\n\tbb=2", "1:1 1:2 1:4 2:2 2:4 2:5 2:6"},
		{"comment", "\\\\ a=1\nb=2 \\\\ c=3\n\\\\\nd=4", "2:1 2:2 2:3 4:1 4:2 4:3 4:4"},
		{"bracket", "r=[1,\n  2]\nx=<m> y([a,\nb])=3", "1:1 1:2 1:3 3:1 3:2 3:3 3:7 3:8 3:9 4:3 4:4 4:5 4:6"},
		{"non-ascii", "név=é x=<ü>", "1:1 1:5 1:6 1:9 1:10 1:11 1:15"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			toks, err := Lex(tt.src)
			if err != nil {
				t.Fatalf("Lex error: %v", err)
			}
			got := make([]string, len(toks))
			for i, tok := range toks {
				got[i] = tok.Pos.String()
			}
			if g := strings.Join(got, " "); g != tt.want {
				t.Errorf("Lex(%q) positions = %s, want %s", tt.src, g, tt.want)
			}
		})
	}
}

func TestLexMultilineBracket(t *testing.T) {
	toks, err := Lex("range=[bronze,\n  silver]")
	if err != nil {
		t.Fatalf("Lex error: %v", err)
	}
	if toks[2].Kind != TokenBracket || toks[2].Text != "bronze, silver" {
		t.Errorf("bracket = %+v", toks[2])
	}
}

func TestLexErrors(t *testing.T) {
	tests := []struct{ src, want string }{
		{"a=[1", "spec:1:3: unterminated bracket group"},
		{"a=<x", "spec:1:3: unterminated <> reference"},
		{"a=]", "spec:1:3: unexpected ']' with no matching '['"},
		{"a=>", "spec:1:3: unexpected '>' with no matching '<'"},
		{"a=[[1]]", "spec:1:4: nested '[' inside bracket group"},
		{"a=<x\n>", "spec:1:3: unterminated <> reference"},
		{"a=[1\r\n\t[2]]", "spec:2:2: nested '[' inside bracket group"},
		{"a=1\n\tb=< >", "spec:2:4: empty <> reference"},
		{"é=\\x", "spec:1:4: unexpected character \"\\\\\""},
		{"a=\x00", "spec:1:3: unexpected character \"\\x00\""},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			_, err := Lex(tt.src)
			if err == nil || err.Error() != tt.want {
				t.Errorf("Lex(%q) error = %v, want %s", tt.src, err, tt.want)
			}
		})
	}
}
