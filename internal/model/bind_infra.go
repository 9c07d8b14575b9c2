package model

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"aved/internal/spec"
	"aved/internal/units"
)

// BindInfrastructure interprets a parsed spec document as an
// infrastructure model (Fig. 3's format) and validates it: component
// references resolve, dependency chains are well formed, and every
// mechanism effect binds to typed values that match its parameters.
func BindInfrastructure(doc *spec.Document) (*Infrastructure, error) {
	inf := &Infrastructure{
		Components: map[string]*Component{},
		Mechanisms: map[string]*Mechanism{},
		Resources:  map[string]*ResourceType{},
	}
	b := &infraBinder{inf: inf}
	for i := range doc.Clauses {
		if err := b.clause(&doc.Clauses[i]); err != nil {
			return nil, err
		}
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return inf, nil
}

// ParseInfrastructure parses and binds infrastructure spec source text.
func ParseInfrastructure(src string) (*Infrastructure, error) {
	doc, err := spec.Parse(src)
	if err != nil {
		return nil, err
	}
	return BindInfrastructure(doc)
}

type infraBinder struct {
	inf *Infrastructure

	curComponent *Component
	curMechanism *Mechanism
	curResource  *ResourceType

	// effects are the mechanism effect attributes in source order;
	// validate binds them once every parameter they may name is
	// declared.
	effects []mechEffect
}

type mechEffect struct {
	mech *Mechanism
	attr spec.Attr
}

func (b *infraBinder) clause(c *spec.Clause) error {
	switch c.Key {
	case "component":
		// Inside a resource scope, component clauses with depend/startup
		// attributes are resource members; otherwise they declare a new
		// component type.
		if b.curResource != nil && (c.HasAttr("depend") || c.HasAttr("startup")) {
			return b.resourceMember(c)
		}
		return b.component(c)
	case "failure":
		return b.failure(c)
	case "mechanism":
		return b.mechanism(c)
	case "param":
		return b.param(c)
	case "resource":
		return b.resource(c)
	default:
		return fmt.Errorf("spec:%s: clause %q does not belong in an infrastructure model", c.Pos, c.Key)
	}
}

func (b *infraBinder) component(c *spec.Clause) error {
	if _, dup := b.inf.Components[c.Name]; dup {
		return fmt.Errorf("spec:%s: duplicate component %q", c.Pos, c.Name)
	}
	comp := &Component{Name: c.Name}
	for _, a := range c.Attrs {
		switch a.Key {
		case "cost":
			if err := bindCost(a, &comp.CostInactive, &comp.CostActive); err != nil {
				return err
			}
		case "max_instances":
			n, err := parsePositiveInt(a)
			if err != nil {
				return err
			}
			comp.MaxInstances = n
		case "loss_window":
			if a.Value.IsRef() {
				comp.LossWindowRef = a.Value.Text
				comp.HasLossWindow = true
				continue
			}
			d, err := units.ParseDuration(a.Value.Text)
			if err != nil {
				return fmt.Errorf("spec:%s: component %q loss_window: %w", a.Pos, c.Name, err)
			}
			comp.LossWindow = d
			comp.HasLossWindow = true
		default:
			return fmt.Errorf("spec:%s: component %q: unknown attribute %q", a.Pos, c.Name, a.Key)
		}
	}
	b.inf.Components[c.Name] = comp
	b.inf.componentOrder = append(b.inf.componentOrder, c.Name)
	b.curComponent = comp
	b.curMechanism = nil
	b.curResource = nil
	return nil
}

func (b *infraBinder) failure(c *spec.Clause) error {
	if b.curComponent == nil {
		return fmt.Errorf("spec:%s: failure clause %q outside a component", c.Pos, c.Name)
	}
	if _, dup := b.curComponent.FailureMode(c.Name); dup {
		return fmt.Errorf("spec:%s: component %q: duplicate failure mode %q", c.Pos, b.curComponent.Name, c.Name)
	}
	fm := FailureMode{Name: c.Name}
	seen := map[string]bool{}
	for _, a := range c.Attrs {
		if seen[a.Key] {
			return fmt.Errorf("spec:%s: failure %q: duplicate attribute %q", a.Pos, c.Name, a.Key)
		}
		seen[a.Key] = true
		switch a.Key {
		case "mtbf":
			if a.Value.IsRef() {
				fm.MTBFRef = a.Value.Text
				continue
			}
			d, err := units.ParseDuration(a.Value.Text)
			if err != nil {
				return fmt.Errorf("spec:%s: failure %q mtbf: %w", a.Pos, c.Name, err)
			}
			if d <= 0 {
				return fmt.Errorf("spec:%s: failure %q: mtbf must be positive", a.Pos, c.Name)
			}
			fm.MTBF = d
		case "mttr":
			if a.Value.IsRef() {
				fm.MTTRRef = a.Value.Text
				continue
			}
			d, err := units.ParseDuration(a.Value.Text)
			if err != nil {
				return fmt.Errorf("spec:%s: failure %q mttr: %w", a.Pos, c.Name, err)
			}
			fm.MTTR = d
		case "detect_time":
			d, err := units.ParseDuration(a.Value.Text)
			if err != nil {
				return fmt.Errorf("spec:%s: failure %q detect_time: %w", a.Pos, c.Name, err)
			}
			fm.DetectTime = d
		default:
			return fmt.Errorf("spec:%s: failure %q: unknown attribute %q", a.Pos, c.Name, a.Key)
		}
	}
	if fm.MTBF == 0 && fm.MTBFRef == "" {
		return fmt.Errorf("spec:%s: failure %q: missing mtbf", c.Pos, c.Name)
	}
	fm.qual = b.curComponent.Name + "/" + fm.Name
	b.curComponent.Failures = append(b.curComponent.Failures, fm)
	return nil
}

func (b *infraBinder) mechanism(c *spec.Clause) error {
	if _, dup := b.inf.Mechanisms[c.Name]; dup {
		return fmt.Errorf("spec:%s: duplicate mechanism %q", c.Pos, c.Name)
	}
	mech := &Mechanism{Name: c.Name}
	for _, a := range c.Attrs {
		b.effects = append(b.effects, mechEffect{mech, a})
	}
	b.inf.Mechanisms[c.Name] = mech
	b.inf.mechanismOrder = append(b.inf.mechanismOrder, c.Name)
	b.curMechanism = mech
	b.curComponent = nil
	b.curResource = nil
	return nil
}

func (b *infraBinder) param(c *spec.Clause) error {
	if b.curMechanism == nil {
		return fmt.Errorf("spec:%s: param clause %q outside a mechanism", c.Pos, c.Name)
	}
	if _, dup := b.curMechanism.Param(c.Name); dup {
		return fmt.Errorf("spec:%s: mechanism %q: duplicate param %q", c.Pos, b.curMechanism.Name, c.Name)
	}
	p := Param{Name: c.Name}
	sawRange := false
	for _, a := range c.Attrs {
		if a.Key != "range" {
			// Effect attributes may trail a param clause; they belong to
			// the mechanism.
			b.effects = append(b.effects, mechEffect{b.curMechanism, a})
			continue
		}
		if sawRange {
			return fmt.Errorf("spec:%s: param %q: duplicate range", a.Pos, c.Name)
		}
		sawRange = true
		items := a.Value.Items()
		if isEnumRange(items) {
			// The writer separates settings with commas alone, so a
			// setting with inner blanks would split on the way back.
			for _, it := range items {
				if strings.ContainsFunc(it, unicode.IsSpace) {
					return fmt.Errorf("spec:%s: param %q: setting %q contains whitespace", a.Pos, c.Name, it)
				}
			}
			p.Enum = items
			continue
		}
		g, err := units.ParseDurationGrid("[" + a.Value.Text + "]")
		if err != nil {
			return fmt.Errorf("spec:%s: param %q range: %w", a.Pos, c.Name, err)
		}
		p.Grid = g
	}
	if !sawRange {
		return fmt.Errorf("spec:%s: param %q: missing range", c.Pos, c.Name)
	}
	b.curMechanism.Params = append(b.curMechanism.Params, p)
	return nil
}

func (b *infraBinder) resource(c *spec.Clause) error {
	if _, dup := b.inf.Resources[c.Name]; dup {
		return fmt.Errorf("spec:%s: duplicate resource %q", c.Pos, c.Name)
	}
	rt := &ResourceType{Name: c.Name}
	for _, a := range c.Attrs {
		switch a.Key {
		case "reconfig_time":
			d, err := units.ParseDuration(a.Value.Text)
			if err != nil {
				return fmt.Errorf("spec:%s: resource %q reconfig_time: %w", a.Pos, c.Name, err)
			}
			rt.ReconfigTime = d
		default:
			return fmt.Errorf("spec:%s: resource %q: unknown attribute %q", a.Pos, c.Name, a.Key)
		}
	}
	b.inf.Resources[c.Name] = rt
	b.inf.resourceOrder = append(b.inf.resourceOrder, c.Name)
	b.curResource = rt
	b.curComponent = nil
	b.curMechanism = nil
	return nil
}

func (b *infraBinder) resourceMember(c *spec.Clause) error {
	comp, ok := b.inf.Components[c.Name]
	if !ok {
		return fmt.Errorf("spec:%s: resource %q: unknown component %q", c.Pos, b.curResource.Name, c.Name)
	}
	if _, dup := b.curResource.Component(c.Name); dup {
		return fmt.Errorf("spec:%s: resource %q: duplicate component %q", c.Pos, b.curResource.Name, c.Name)
	}
	rc := ResourceComponent{Component: comp}
	for _, a := range c.Attrs {
		switch a.Key {
		case "depend":
			if a.Value.Text != "null" {
				rc.DependsOn = a.Value.Text
			}
		case "startup":
			d, err := units.ParseDuration(a.Value.Text)
			if err != nil {
				return fmt.Errorf("spec:%s: resource %q component %q startup: %w",
					a.Pos, b.curResource.Name, c.Name, err)
			}
			rc.Startup = d
		default:
			return fmt.Errorf("spec:%s: resource %q component %q: unknown attribute %q",
				a.Pos, b.curResource.Name, c.Name, a.Key)
		}
	}
	if rc.DependsOn != "" {
		if _, ok := b.curResource.Component(rc.DependsOn); !ok {
			return fmt.Errorf("spec:%s: resource %q component %q depends on %q, which is not an earlier member",
				c.Pos, b.curResource.Name, c.Name, rc.DependsOn)
		}
	}
	b.curResource.Components = append(b.curResource.Components, rc)
	return nil
}

// validate performs whole-model checks after all clauses are bound.
func (b *infraBinder) validate() error {
	inf := b.inf
	for _, e := range b.effects {
		eff, err := bindEffect(e.attr, e.mech)
		if err != nil {
			return err
		}
		e.mech.Effects = append(e.mech.Effects, eff)
	}
	for _, name := range inf.componentOrder {
		comp := inf.Components[name]
		if len(comp.Failures) == 0 {
			return fmt.Errorf("component %q declares no failure modes", name)
		}
		for _, f := range comp.Failures {
			if f.MTTRRef != "" {
				mech, ok := inf.Mechanisms[f.MTTRRef]
				if !ok {
					return fmt.Errorf("component %q failure %q: unknown mechanism %q", name, f.Name, f.MTTRRef)
				}
				if _, ok := mech.Effect("mttr"); !ok {
					return fmt.Errorf("component %q failure %q: mechanism %q supplies no mttr effect",
						name, f.Name, f.MTTRRef)
				}
			}
			if f.MTBFRef != "" {
				mech, ok := inf.Mechanisms[f.MTBFRef]
				if !ok {
					return fmt.Errorf("component %q failure %q: unknown mechanism %q", name, f.Name, f.MTBFRef)
				}
				if _, ok := mech.Effect("mtbf"); !ok {
					return fmt.Errorf("component %q failure %q: mechanism %q supplies no mtbf effect",
						name, f.Name, f.MTBFRef)
				}
			}
		}
		if comp.LossWindowRef != "" {
			mech, ok := inf.Mechanisms[comp.LossWindowRef]
			if !ok {
				return fmt.Errorf("component %q: unknown loss-window mechanism %q", name, comp.LossWindowRef)
			}
			if _, ok := mech.Effect("loss_window"); !ok {
				return fmt.Errorf("component %q: mechanism %q supplies no loss_window effect", name, comp.LossWindowRef)
			}
		}
	}
	for _, name := range inf.resourceOrder {
		if len(inf.Resources[name].Components) == 0 {
			return fmt.Errorf("resource %q has no components", name)
		}
	}
	return nil
}

// bindCost interprets cost=N or cost([inactive,active])=[a b].
func bindCost(a spec.Attr, inactive, active *units.Money) error {
	if len(a.Args) == 0 {
		m, err := units.ParseMoney(a.Value.Text)
		if err != nil {
			return fmt.Errorf("spec:%s: cost: %w", a.Pos, err)
		}
		*inactive, *active = m, m
		return nil
	}
	items := a.Value.Items()
	if len(items) != len(a.Args) {
		return fmt.Errorf("spec:%s: cost: %d values for %d modes", a.Pos, len(items), len(a.Args))
	}
	for i, mode := range a.Args {
		m, err := units.ParseMoney(items[i])
		if err != nil {
			return fmt.Errorf("spec:%s: cost[%s]: %w", a.Pos, mode, err)
		}
		switch mode {
		case "inactive":
			*inactive = m
		case "active":
			*active = m
		default:
			return fmt.Errorf("spec:%s: cost: unknown operational mode %q", a.Pos, mode)
		}
	}
	return nil
}

// bindEffect binds a mechanism effect attribute to typed values, once
// every parameter of mech is declared: cost=0, cost(level)=[380 580],
// mttr(level)=[38h 15h], loss_window=checkpoint_interval.
func bindEffect(a spec.Attr, mech *Mechanism) (Effect, error) {
	fail := func(format string, args ...any) (Effect, error) {
		return Effect{}, fmt.Errorf("spec:%s: mechanism %q effect %q: %s", a.Pos, mech.Name, a.Key, fmt.Sprintf(format, args...))
	}
	isCost := a.Key == "cost"
	if !isCost && a.Key != "mttr" && a.Key != "mtbf" && a.Key != "loss_window" {
		return fail("unknown effect (want cost, mttr, mtbf or loss_window)")
	}
	if _, dup := mech.Effect(a.Key); dup {
		return fail("duplicate effect")
	}
	eff := Effect{Attr: a.Key}
	items := a.Value.Items()
	switch {
	case len(a.Args) > 1:
		return fail("at most one indexing parameter is supported")
	case len(a.Args) == 1:
		p, ok := mech.Param(a.Args[0])
		if !ok {
			return fail("unknown parameter %q", a.Args[0])
		}
		if !p.IsEnum() {
			return fail("tables require an enumerated parameter, %q is numeric", p.Name)
		}
		if len(items) != len(p.Enum) {
			return fail("table has %d entries for %d parameter settings", len(items), len(p.Enum))
		}
		eff.ByParam = p.Name
	case a.Value.Kind != spec.ValueWord:
		return fail("want a scalar value")
	case !isCost:
		// A scalar that is not a duration may name a numeric parameter
		// whose chosen value flows through.
		p, ok := mech.Param(a.Value.Text)
		if _, err := units.ParseDuration(a.Value.Text); err != nil && ok {
			if p.IsEnum() {
				return fail("parameter %q is enumerated; only a numeric parameter passes its value through", p.Name)
			}
			return Effect{Attr: a.Key, Pass: p.Name}, nil
		}
	}
	for _, it := range items {
		if isCost {
			m, err := units.ParseMoney(it)
			if err != nil {
				return fail("%v", err)
			}
			eff.Costs = append(eff.Costs, m)
			continue
		}
		d, err := units.ParseDuration(it)
		if err != nil {
			return fail("%v", err)
		}
		eff.Times = append(eff.Times, d)
	}
	return eff, nil
}

// isEnumRange reports whether range items are an enumeration rather
// than a numeric span ("bronze,silver" vs "1m-24h;*1.05").
func isEnumRange(items []string) bool {
	if len(items) == 0 {
		return false
	}
	for _, it := range items {
		if units.IsDuration(it) {
			return false
		}
		for _, c := range it {
			if c == '-' || c == ';' || c == '*' || c == '+' {
				return false
			}
		}
	}
	return true
}

func parsePositiveInt(a spec.Attr) (int, error) {
	n, err := strconv.Atoi(a.Value.Text)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("spec:%s: %s: want a positive integer, got %q", a.Pos, a.Key, a.Value.Text)
	}
	return n, nil
}
