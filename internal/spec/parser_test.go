package spec

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseComponentClause(t *testing.T) {
	src := `
component=machineA cost([inactive,active])=[2400 2640]
  failure=hard mtbf=650d mttr=<maintenanceA> detect_time=2m
  failure=soft mtbf=75d mttr=0 detect_time=0
`
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse error: %v", err)
	}
	if len(doc.Clauses) != 3 {
		t.Fatalf("clause count = %d, want 3", len(doc.Clauses))
	}
	comp := doc.Clauses[0]
	if comp.Key != "component" || comp.Name != "machineA" {
		t.Errorf("head = %s=%s", comp.Key, comp.Name)
	}
	costAttr, ok := comp.Attr("cost")
	if !ok {
		t.Fatal("missing cost attribute")
	}
	if !reflect.DeepEqual(costAttr.Args, []string{"inactive", "active"}) {
		t.Errorf("cost args = %v", costAttr.Args)
	}
	if !reflect.DeepEqual(costAttr.Value.Items(), []string{"2400", "2640"}) {
		t.Errorf("cost values = %v", costAttr.Value.Items())
	}

	hard := doc.Clauses[1]
	if hard.Key != "failure" || hard.Name != "hard" {
		t.Errorf("failure head = %s=%s", hard.Key, hard.Name)
	}
	mttr, ok := hard.Attr("mttr")
	if !ok || !mttr.Value.IsRef() || mttr.Value.Text != "maintenanceA" {
		t.Errorf("mttr = %+v", mttr)
	}
	mtbf, _ := hard.Attr("mtbf")
	if mtbf.Value.Text != "650d" {
		t.Errorf("mtbf = %v", mtbf.Value)
	}
}

func TestParseMechanismClause(t *testing.T) {
	src := `
mechanism=maintenanceA
  param=level range=[bronze,silver,gold,platinum]
    cost(level)= [380 580 760 1500]
    mttr(level)=[38h 15h 8h 6h]
mechanism=checkpoint
  param=storage_location range=[central,peer]
  param=checkpoint_interval range=[1m-24h;*1.05]
  cost=0
  loss_window=checkpoint_interval
`
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse error: %v", err)
	}
	var mechs, params []Clause
	for _, c := range doc.Clauses {
		switch c.Key {
		case "mechanism":
			mechs = append(mechs, c)
		case "param":
			params = append(params, c)
		}
	}
	if len(mechs) != 2 || len(params) != 3 {
		t.Fatalf("mechs=%d params=%d, want 2 and 3", len(mechs), len(params))
	}
	// The level param carries the cost/mttr effect attributes since they
	// follow it in the clause stream.
	level := params[0]
	if level.Name != "level" {
		t.Fatalf("first param = %q", level.Name)
	}
	rng, _ := level.Attr("range")
	if !reflect.DeepEqual(rng.Value.Items(), []string{"bronze", "silver", "gold", "platinum"}) {
		t.Errorf("range = %v", rng.Value.Items())
	}
	mttr, ok := level.Attr("mttr")
	if !ok || !reflect.DeepEqual(mttr.Args, []string{"level"}) {
		t.Errorf("mttr = %+v", mttr)
	}
	if !reflect.DeepEqual(mttr.Value.Items(), []string{"38h", "15h", "8h", "6h"}) {
		t.Errorf("mttr values = %v", mttr.Value.Items())
	}
	ckpt := params[2]
	if ckpt.Name != "checkpoint_interval" {
		t.Fatalf("third param = %q", ckpt.Name)
	}
	rng2, _ := ckpt.Attr("range")
	if rng2.Value.Text != "1m-24h;*1.05" {
		t.Errorf("checkpoint range raw = %q", rng2.Value.Text)
	}
}

func TestParseResourceClause(t *testing.T) {
	src := `
resource=rA reconfig_time=0
  component=machineA depend=null startup=30s
  component=linux depend=machineA startup=2m
  component=webserver depend=linux startup=30s
`
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse error: %v", err)
	}
	if len(doc.Clauses) != 4 {
		t.Fatalf("clause count = %d, want 4", len(doc.Clauses))
	}
	res := doc.Clauses[0]
	if res.Key != "resource" || res.Name != "rA" {
		t.Errorf("head = %s=%s", res.Key, res.Name)
	}
	member := doc.Clauses[2]
	if member.Key != "component" || member.Name != "linux" {
		t.Errorf("member = %s=%s", member.Key, member.Name)
	}
	dep, _ := member.Attr("depend")
	if dep.Value.Text != "machineA" {
		t.Errorf("depend = %v", dep.Value)
	}
	st, _ := member.Attr("startup")
	if st.Value.Text != "2m" {
		t.Errorf("startup = %v", st.Value)
	}
}

func TestParseServiceClause(t *testing.T) {
	src := `
application=scientific jobsize=10000
tier=computation
  resource=rH sizing=static failurescope=tier
    nActive=[1-1000,+1] performance(nActive)=perfH.dat
    mechanism=checkpoint mperformance(storage_location,
        checkpoint_interval, nActive)=mperfH.dat
`
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse error: %v", err)
	}
	if len(doc.Clauses) != 4 {
		t.Fatalf("clause count = %d, want 4: %+v", len(doc.Clauses), doc.Clauses)
	}
	app := doc.Clauses[0]
	js, ok := app.Attr("jobsize")
	if !ok || js.Value.Text != "10000" {
		t.Errorf("jobsize = %+v", js)
	}
	res := doc.Clauses[2]
	if res.Key != "resource" || res.Name != "rH" {
		t.Errorf("resource head = %s=%s", res.Key, res.Name)
	}
	na, _ := res.Attr("nActive")
	if na.Value.Text != "1-1000,+1" {
		t.Errorf("nActive raw = %q", na.Value.Text)
	}
	perf, _ := res.Attr("performance")
	if !reflect.DeepEqual(perf.Args, []string{"nActive"}) || perf.Value.Text != "perfH.dat" {
		t.Errorf("performance = %+v", perf)
	}
	mech := doc.Clauses[3]
	if mech.Key != "mechanism" || mech.Name != "checkpoint" {
		t.Errorf("mechanism head = %s=%s", mech.Key, mech.Name)
	}
	mp, ok := mech.Attr("mperformance")
	if !ok {
		t.Fatal("missing mperformance")
	}
	wantArgs := []string{"storage_location", "checkpoint_interval", "nActive"}
	if !reflect.DeepEqual(mp.Args, wantArgs) {
		t.Errorf("mperformance args = %v, want %v", mp.Args, wantArgs)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []string{
		"cost=0",                      // attribute before any clause head
		"component=",                  // missing name
		"component=[a]",               // bracketed clause name
		"component=machineA cost",     // missing '='
		"component=machineA cost=",    // missing value
		"component(x)=machineA",       // clause head with args
		"component=machineA cost()=1", // empty args
		"component=m cost(a,)=1",      // trailing comma is a missing arg
	}
	for _, src := range tests {
		t.Run(src, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", src)
			}
		})
	}
}

// TestParseLexErrorWins pins the error precedence of the pull parser:
// a lexical error anywhere in the document outranks an earlier syntax
// error, exactly as when the whole source was lexed before parsing.
func TestParseLexErrorWins(t *testing.T) {
	src := "cost=0\ncomponent=m cost=[1 2"
	_, lexErr := Lex(src)
	if lexErr == nil {
		t.Fatal("Lex accepted an unterminated '['")
	}
	_, err := Parse(src)
	if err == nil || err.Error() != lexErr.Error() {
		t.Fatalf("Parse error = %v, want the lex error %v", err, lexErr)
	}
	if want := "spec:2:18: unterminated bracket group"; err.Error() != want {
		t.Errorf("Parse error = %q, want %q", err, want)
	}
	// With the bracket closed, the clause-head error stands.
	_, err = Parse("cost=0\ncomponent=m cost=[1 2]")
	if err == nil || !strings.Contains(err.Error(), "spec:1:1: want a clause keyword") {
		t.Errorf("Parse error = %v, want the clause-head error at 1:1", err)
	}
}

func TestClauseString(t *testing.T) {
	doc, err := Parse("failure=hard mtbf=650d mttr=<maintenanceA> detect_time=2m")
	if err != nil {
		t.Fatal(err)
	}
	got := doc.Clauses[0].String()
	want := "failure=hard mtbf=650d mttr=<maintenanceA> detect_time=2m"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRoundTripReparse(t *testing.T) {
	src := `mechanism=checkpoint param=storage_location range=[central,peer] cost=0`
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var rendered string
	for i, c := range doc.Clauses {
		if i > 0 {
			rendered += "\n"
		}
		rendered += c.String()
	}
	doc2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("reparse error: %v (rendered=%q)", err, rendered)
	}
	if len(doc2.Clauses) != len(doc.Clauses) {
		t.Errorf("reparse clause count = %d, want %d", len(doc2.Clauses), len(doc.Clauses))
	}
}

func TestDocumentClausesWithKey(t *testing.T) {
	doc, err := Parse("component=a cost=0 component=b cost=1 resource=r reconfig_time=0")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.ClausesWithKey("component")); got != 2 {
		t.Errorf("component clauses = %d, want 2", got)
	}
	if got := len(doc.ClausesWithKey("resource")); got != 1 {
		t.Errorf("resource clauses = %d, want 1", got)
	}
}
