package spec

import "strings"

// Parse lexes and parses a complete specification source text. The
// parser reads tokens from the scanner's lookahead slot one at a time,
// with no token slice, and carves every clause's attributes from one
// slab sized by the source's '=' count, an upper bound on its
// attributes.
//
// A lexical error anywhere in the source outranks a syntax error
// earlier in it, as if the whole source had been lexed first: Parse
// fails with Lex's error whenever Lex fails.
func Parse(src string) (*Document, error) {
	p := &parser{
		sc:    newScanner(src),
		attrs: make([]Attr, 0, strings.Count(src, "=")),
	}
	p.advance()
	doc, err := p.parseDocument()
	// A syntax error stops the parse early; lex the rest of the source.
	for err != nil && p.lexErr == nil && p.sc.tok.Kind != TokenEOF {
		p.advance()
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
	// sc.tok is the one-token lookahead; the parse methods read it in
	// place through a pointer.
	sc scanner
	// lexErr is the scanner's first error. The parser then sees end of
	// input, and Parse reports lexErr over whatever the parse made of
	// the truncated stream.
	lexErr error
	// attrs is the document's attribute slab; each clause's Attrs is a
	// capacity-clipped window of it.
	attrs []Attr
}

// advance consumes the lookahead token and scans the next one into its
// slot.
func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	if err := p.sc.scan(); err != nil {
		p.lexErr = err
		p.sc.tok, p.sc.head = Token{Kind: TokenEOF}, false
	}
}

// expect consumes the lookahead token, which must be of the given kind.
func (p *parser) expect(kind TokenKind) error {
	if t := &p.sc.tok; t.Kind != kind {
		return errorAt(t.Pos, "want %s, got %s %q", kind, t.Kind, t.Text)
	}
	p.advance()
	return nil
}

// parseDocument gathers the clauses in a stack buffer that holds a
// typical document's, then copies them out in one allocation.
func (p *parser) parseDocument() (*Document, error) {
	var buf [32]Clause
	clauses := buf[:0]
	for p.sc.tok.Kind != TokenEOF {
		clause, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, clause)
	}
	return &Document{Clauses: append([]Clause(nil), clauses...)}, nil
}

// parseClause consumes one clause: a head key=name pair followed by
// attributes up to (not including) the next clause head or EOF.
func (p *parser) parseClause() (Clause, error) {
	if !p.sc.head {
		return Clause{}, errorAt(p.sc.tok.Pos,
			"want a clause keyword (component, failure, mechanism, param, resource, tier, application, requirements), got %q", p.sc.tok.Text)
	}
	var head Attr
	if err := p.parseAttr(&head); err != nil {
		return Clause{}, err
	}
	if len(head.Args) > 0 {
		return Clause{}, errorAt(head.Pos, "clause head %q cannot take arguments", head.Key)
	}
	if head.Value.Kind != ValueWord {
		return Clause{}, errorAt(head.Value.Pos, "clause head %q needs a bare name, got %s", head.Key, head.Value)
	}
	clause := Clause{Key: head.Key, Name: head.Value.Text, Pos: head.Pos}
	start := len(p.attrs)
	for p.sc.tok.Kind != TokenEOF && !p.sc.head {
		p.attrs = append(p.attrs, Attr{})
		if err := p.parseAttr(&p.attrs[len(p.attrs)-1]); err != nil {
			return Clause{}, err
		}
	}
	if end := len(p.attrs); end > start {
		clause.Attrs = p.attrs[start:end:end]
	}
	return clause, nil
}

// parseAttr consumes key [ "(" args ")" ] "=" value into a.
func (p *parser) parseAttr(a *Attr) error {
	t := &p.sc.tok
	a.Key, a.Pos = t.Text, t.Pos
	if err := p.expect(TokenWord); err != nil {
		return err
	}
	if t.Kind == TokenLParen {
		args, err := p.parseArgs()
		if err != nil {
			return err
		}
		a.Args = args
	}
	if err := p.expect(TokenAssign); err != nil {
		return errorAt(a.Pos, "attribute %q: %v", a.Key, err)
	}
	return p.parseValue(&a.Value)
}

// parseArgs consumes "(" item { "," item } ")" where an item is a word
// or a bracketed list whose elements splice into the argument list, as
// in cost([inactive,active]). The lookahead is the "(".
func (p *parser) parseArgs() ([]string, error) {
	p.advance()
	t := &p.sc.tok
	var args []string
	for {
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
		p.advance()
		switch t.Kind {
		case TokenComma:
			p.advance()
		case TokenRParen:
			p.advance()
			return args, nil
		default:
			return nil, errorAt(t.Pos, "want ',' or ')' in argument list, got %s %q", t.Kind, t.Text)
		}
	}
}

// parseValue consumes a value token into v.
func (p *parser) parseValue(v *Value) error {
	t := &p.sc.tok
	switch t.Kind {
	case TokenWord:
		v.Kind = ValueWord
	case TokenBracket:
		v.Kind = ValueBracket
	case TokenRef:
		v.Kind = ValueRef
	default:
		return errorAt(t.Pos, "want a value, got %s %q", t.Kind, t.Text)
	}
	v.Text, v.Pos = t.Text, t.Pos
	p.advance()
	return nil
}
