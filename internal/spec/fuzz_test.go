package spec

import (
	"strings"
	"testing"
)

// FuzzParse checks that the lexer and parser never panic, that Parse
// fails with Lex's exact error whenever Lex fails (a lexical error
// anywhere outranks a syntax error), that every position of a
// successfully parsed document is its Lex token's, and that the
// document renders and reparses to the same clause structure. Run with
// `go test -fuzz FuzzParse ./internal/spec` for a real campaign; the
// seed corpus runs as a regular test.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"component=machineA cost=0",
		"component=machineA cost([inactive,active])=[2400 2640]\nfailure=hard mtbf=650d mttr=<maintenanceA> detect_time=2m",
		"mechanism=checkpoint param=storage_location range=[central,peer] param=checkpoint_interval range=[1m-24h;*1.05] cost=0 loss_window=checkpoint_interval",
		"resource=rA reconfig_time=0 component=machineA depend=null startup=30s",
		"application=scientific jobsize=10000 tier=computation resource=rH sizing=static failurescope=tier nActive=[1-1000,+1] performance(nActive)=perfH.dat",
		"\\\\ comment only",
		"a=1",
		"component=",
		"component=x cost=[",
		"component=x cost=<",
		"component=x cost=]",
		"mechanism=m mperformance(a, b)=f.dat",
		"tier=t\n\n\ntier=u",
		"component=x cost=0 \\\\ trailing comment\nfailure=f mtbf=1d mttr=0 detect_time=0",
		"cost=0 component=x cost=[1",
		"component=x cost( =1 a=<",
		"component=m\r\n\tcost(a,[b\nc])=[1\n 2] \\\\ x\nfailure=é mttr=<m>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := Parse(src)
		if _, lexErr := Lex(src); lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("Parse error = %v, want Lex's %v\nsource: %q", err, lexErr, src)
			}
			return
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		checkPositions(t, src, doc)
		// Render and reparse: the clause structure must survive.
		var sb strings.Builder
		for i, c := range doc.Clauses {
			if i > 0 {
				sb.WriteByte('\n')
			}
			sb.WriteString(c.String())
		}
		doc2, err := Parse(sb.String())
		if err != nil {
			t.Fatalf("rendered document failed to reparse: %v\nsource: %q\nrendered: %q", err, src, sb.String())
		}
		if len(doc2.Clauses) != len(doc.Clauses) {
			t.Fatalf("clause count changed: %d → %d\nsource: %q", len(doc.Clauses), len(doc2.Clauses), src)
		}
		for i := range doc.Clauses {
			if doc.Clauses[i].Key != doc2.Clauses[i].Key || doc.Clauses[i].Name != doc2.Clauses[i].Name {
				t.Fatalf("clause %d head changed: %s=%s → %s=%s",
					i, doc.Clauses[i].Key, doc.Clauses[i].Name, doc2.Clauses[i].Key, doc2.Clauses[i].Name)
			}
			if len(doc.Clauses[i].Attrs) != len(doc2.Clauses[i].Attrs) {
				t.Fatalf("clause %d attr count changed", i)
			}
		}
	})
}

// checkPositions walks the Lex token stream of src alongside doc and
// requires every clause, attribute and value position to be the Pos of
// the token it was parsed from.
func checkPositions(t *testing.T, src string, doc *Document) {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex failed on a source Parse accepted: %v", err)
	}
	i := 0
	at := func(what string, pos Pos) {
		t.Helper()
		if toks[i].Pos != pos {
			t.Fatalf("%s at %v, want its token %s %q at %v\nsource: %q", what, pos, toks[i].Kind, toks[i].Text, toks[i].Pos, src)
		}
	}
	for _, c := range doc.Clauses {
		at("clause "+c.Key, c.Pos)
		i += 3 // head key, '=', name
		for _, a := range c.Attrs {
			at("attribute "+a.Key, a.Pos)
			i++
			if toks[i].Kind == TokenLParen {
				for toks[i].Kind != TokenRParen {
					i++
				}
				i++
			}
			i++ // '='
			at("value of "+a.Key, a.Value.Pos)
			i++
		}
	}
	if toks[i].Kind != TokenEOF {
		t.Fatalf("parse ended at token %d of %d (%s %q)\nsource: %q", i, len(toks), toks[i].Kind, toks[i].Text, src)
	}
}

// FuzzLex checks the tokenizer in isolation.
func FuzzLex(f *testing.F) {
	for _, s := range []string{"", "a=b", "[x", "<y", "a=[1 2]", "(,)", "=", "\\\\c\n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokenEOF {
			t.Fatalf("token stream not EOF-terminated for %q", src)
		}
	})
}
