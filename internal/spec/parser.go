package spec

import "strings"

// clauseHeads are the keywords that begin a new clause. Any other
// key=value pair attaches to the clause currently being parsed.
var clauseHeads = map[string]bool{
	"component":    true,
	"failure":      true,
	"mechanism":    true,
	"param":        true,
	"resource":     true,
	"tier":         true,
	"application":  true,
	"requirements": true,
}

// Parse lexes and parses a complete specification source text. The
// parser pulls tokens from the lexer one at a time, with no token
// slice, and carves every clause's attributes from one slab sized by
// the source's '=' count, an upper bound on its attributes.
//
// A lexical error anywhere in the source outranks a syntax error
// earlier in it, as if the whole source had been lexed first: Parse
// fails with Lex's error whenever Lex fails.
func Parse(src string) (*Document, error) {
	p := &parser{
		lx:    lexer{src: src, line: 1, col: 1},
		attrs: make([]Attr, 0, strings.Count(src, "=")),
	}
	doc, err := p.parseDocument()
	// A syntax error stops the parse early; lex the rest of the source.
	for err != nil && p.lexErr == nil && p.next().Kind != TokenEOF {
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return doc, nil
}

type parser struct {
	lx lexer
	// tok is the one-token lookahead, valid when primed.
	tok    Token
	primed bool
	// lexErr is the lexer's first error. The parser then sees end of
	// input, and Parse reports lexErr over whatever the parse made of
	// the truncated stream.
	lexErr error
	// attrs is the document's attribute slab; each clause's Attrs is a
	// capacity-clipped window of it.
	attrs []Attr
}

func (p *parser) peek() Token {
	if !p.primed {
		p.primed = true
		if p.lexErr == nil {
			var err error
			if p.tok, err = p.lx.next(); err != nil {
				p.lexErr = err
				p.tok = Token{Kind: TokenEOF}
			}
		}
	}
	return p.tok
}

func (p *parser) next() Token { t := p.peek(); p.primed = false; return t }
func (p *parser) atEOF() bool { return p.peek().Kind == TokenEOF }

func (p *parser) expect(kind TokenKind) (Token, error) {
	t := p.next()
	if t.Kind != kind {
		return Token{}, errorAt(t.Pos, "want %s, got %s %q", kind, t.Kind, t.Text)
	}
	return t, nil
}

func (p *parser) parseDocument() (*Document, error) {
	doc := &Document{}
	for !p.atEOF() {
		clause, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		doc.Clauses = append(doc.Clauses, clause)
	}
	return doc, nil
}

// parseClause consumes one clause: a head key=name pair followed by
// attributes up to (not including) the next clause head or EOF.
func (p *parser) parseClause() (Clause, error) {
	head := p.peek()
	if head.Kind != TokenWord || !clauseHeads[head.Text] {
		return Clause{}, errorAt(head.Pos,
			"want a clause keyword (component, failure, mechanism, param, resource, tier, application, requirements), got %q", head.Text)
	}
	headAttr, err := p.parseAttr()
	if err != nil {
		return Clause{}, err
	}
	if len(headAttr.Args) > 0 {
		return Clause{}, errorAt(headAttr.Pos, "clause head %q cannot take arguments", headAttr.Key)
	}
	if headAttr.Value.Kind != ValueWord {
		return Clause{}, errorAt(headAttr.Value.Pos, "clause head %q needs a bare name, got %s", headAttr.Key, headAttr.Value)
	}
	clause := Clause{Key: headAttr.Key, Name: headAttr.Value.Text, Pos: headAttr.Pos}
	start := len(p.attrs)
	for !p.atEOF() {
		t := p.peek()
		if t.Kind == TokenWord && clauseHeads[t.Text] {
			break
		}
		attr, err := p.parseAttr()
		if err != nil {
			return Clause{}, err
		}
		p.attrs = append(p.attrs, attr)
	}
	if end := len(p.attrs); end > start {
		clause.Attrs = p.attrs[start:end:end]
	}
	return clause, nil
}

// parseAttr consumes key [ "(" args ")" ] "=" value.
func (p *parser) parseAttr() (Attr, error) {
	key, err := p.expect(TokenWord)
	if err != nil {
		return Attr{}, err
	}
	attr := Attr{Key: key.Text, Pos: key.Pos}
	if p.peek().Kind == TokenLParen {
		args, err := p.parseArgs()
		if err != nil {
			return Attr{}, err
		}
		attr.Args = args
	}
	if _, err := p.expect(TokenAssign); err != nil {
		return Attr{}, errorAt(key.Pos, "attribute %q: %v", key.Text, err)
	}
	val, err := p.parseValue()
	if err != nil {
		return Attr{}, err
	}
	attr.Value = val
	return attr, nil
}

// parseArgs consumes "(" item { "," item } ")" where an item is a word
// or a bracketed list whose elements splice into the argument list, as
// in cost([inactive,active]).
func (p *parser) parseArgs() ([]string, error) {
	if _, err := p.expect(TokenLParen); err != nil {
		return nil, err
	}
	var args []string
	for {
		t := p.next()
		switch t.Kind {
		case TokenWord:
			args = append(args, t.Text)
		case TokenBracket:
			items := Value{Kind: ValueBracket, Text: t.Text, Pos: t.Pos}.Items()
			if len(items) == 0 {
				return nil, errorAt(t.Pos, "empty bracket group in argument list")
			}
			for _, it := range items {
				if !isWord(it) {
					return nil, errorAt(t.Pos, "argument %q is not a plain name", it)
				}
			}
			args = append(args, items...)
		case TokenRParen:
			// Reached only before the first item or right after a comma.
			return nil, errorAt(t.Pos, "empty argument in list")
		default:
			return nil, errorAt(t.Pos, "want argument, got %s %q", t.Kind, t.Text)
		}
		switch sep := p.peek(); sep.Kind {
		case TokenComma:
			p.next()
		case TokenRParen:
			p.next()
			return args, nil
		default:
			return nil, errorAt(sep.Pos, "want ',' or ')' in argument list, got %s %q", sep.Kind, sep.Text)
		}
	}
}

func (p *parser) parseValue() (Value, error) {
	t := p.next()
	switch t.Kind {
	case TokenWord:
		return Value{Kind: ValueWord, Text: t.Text, Pos: t.Pos}, nil
	case TokenBracket:
		return Value{Kind: ValueBracket, Text: t.Text, Pos: t.Pos}, nil
	case TokenRef:
		return Value{Kind: ValueRef, Text: t.Text, Pos: t.Pos}, nil
	default:
		return Value{}, errorAt(t.Pos, "want a value, got %s %q", t.Kind, t.Text)
	}
}
