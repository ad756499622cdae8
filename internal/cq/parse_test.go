package cq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"codb/internal/relation"
)

func TestParseQueryBasic(t *testing.T) {
	q, err := ParseQuery(`ans(x, y) :- emp(x, d), dept(d, y)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Head.Rel != "ans" || len(q.Head.Terms) != 2 {
		t.Errorf("head = %v", q.Head)
	}
	if len(q.Body) != 2 || q.Body[0].Rel != "emp" || q.Body[1].Rel != "dept" {
		t.Errorf("body = %v", q.Body)
	}
	if len(q.Cmps) != 0 {
		t.Errorf("cmps = %v", q.Cmps)
	}
}

func TestParseQueryConstantsAndComparisons(t *testing.T) {
	q, err := ParseQuery(`ans(x) :- r(x, 10, -3, 2.5, "it\"s", true, false), x > 5, x != 7, "a" < "b", x <= 10, x >= 0, x = x`)
	if err != nil {
		t.Fatal(err)
	}
	terms := q.Body[0].Terms
	want := []relation.Value{
		{}, relation.Int(10), relation.Int(-3), relation.Float(2.5),
		relation.Str(`it"s`), relation.Bool(true), relation.Bool(false),
	}
	if !terms[0].IsVar() {
		t.Error("x should be a variable")
	}
	for i := 1; i < len(want); i++ {
		if terms[i].IsVar() || terms[i].Const != want[i] {
			t.Errorf("term %d = %v, want %v", i, terms[i], want[i])
		}
	}
	ops := []CmpOp{OpGt, OpNe, OpLt, OpLe, OpGe, OpEq}
	if len(q.Cmps) != len(ops) {
		t.Fatalf("cmps = %v", q.Cmps)
	}
	for i, c := range q.Cmps {
		if c.Op != ops[i] {
			t.Errorf("cmp %d op = %v, want %v", i, c.Op, ops[i])
		}
	}
}

func TestParseQueryAnonymousVars(t *testing.T) {
	q, err := ParseQuery(`ans(x) :- r(x, _), s(_, x)`)
	if err != nil {
		t.Fatal(err)
	}
	a1 := q.Body[0].Terms[1].Var
	a2 := q.Body[1].Terms[0].Var
	if a1 == "" || a2 == "" || a1 == a2 {
		t.Errorf("anonymous vars = %q, %q (must be distinct fresh vars)", a1, a2)
	}
}

func TestParseQueryComments(t *testing.T) {
	q, err := ParseQuery("ans(x) :- # head comment\n r(x) # trailing")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 1 {
		t.Errorf("body = %v", q.Body)
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		``,
		`ans(x)`,
		`ans(x) :- `,
		`ans(x) :- r(y)`,           // unsafe head
		`ans(x) :- r(x), y > 2`,    // unsafe comparison
		`ans(x) :- r(x,`,           // truncated
		`ans(x) :- r()`,            // empty atom
		`ans(x) :- n.r(x)`,         // qualified atom in query
		`n.ans(x) :- r(x)`,         // qualified head
		`ans(x) :- r(x) s(x)`,      // missing comma
		`ans(x) :- r(x), x ! 2`,    // bad operator
		`ans(x) :- r(x), x > -`,    // dangling minus
		`ans(x) :- r(x), x > "a`,   // unterminated string
		`ans(x) :- r(x), x > "\q"`, // bad escape
		`ans(x) : - r(x)`,          // broken arrow
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) accepted", src)
		}
	}
}

func TestParseRuleBasic(t *testing.T) {
	r, err := ParseRule("r1", `N1.person(x, n) <- N2.emp(x, n, d), d = "sales"`)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "r1" || r.Target != "N1" || r.Source != "N2" {
		t.Errorf("rule = %+v", r)
	}
	if len(r.Head) != 1 || r.Head[0].Rel != "person" {
		t.Errorf("head = %v", r.Head)
	}
	if len(r.Body) != 1 || r.Body[0].Rel != "emp" {
		t.Errorf("body = %v", r.Body)
	}
	if len(r.Cmps) != 1 || r.Cmps[0].Op != OpEq {
		t.Errorf("cmps = %v", r.Cmps)
	}
}

func TestParseRuleMultiAtomAndExistential(t *testing.T) {
	r, err := ParseRule("r2", `A.boss(x, z), A.knows(x, z) <- B.mgr(x, y), B.dept(y, w)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Head) != 2 {
		t.Fatalf("head = %v", r.Head)
	}
	fr := r.Frontier()
	ex := r.Existentials()
	if len(fr) != 1 || fr[0] != "x" {
		t.Errorf("frontier = %v", fr)
	}
	if len(ex) != 1 || ex[0] != "z" {
		t.Errorf("existentials = %v", ex)
	}
	if got := r.HeadRelations(); len(got) != 2 {
		t.Errorf("head relations = %v", got)
	}
	if got := r.BodyRelations(); len(got) != 2 {
		t.Errorf("body relations = %v", got)
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		``,
		`A.h(x) <- B.b(x,`,
		`h(x) <- B.b(x)`,            // unqualified head
		`A.h(x) <- b(x)`,            // unqualified body
		`A.h(x), C.h2(x) <- B.b(x)`, // two target nodes
		`A.h(x) <- B.b(x), C.c(x)`,  // two source nodes
		`A.h(x) <- B.b(x), y > 1`,   // unsafe comparison
		`A.h(x) <- B.b(x) extra`,    // trailing input
	}
	for _, src := range bad {
		if _, err := ParseRule("r", src); err == nil {
			t.Errorf("ParseRule(%q) accepted", src)
		}
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	src := `N1.person(x, n) <- N2.emp(x, n, d), d = "sales"`
	r := MustParseRule("r1", src)
	r2, err := ParseRule("r1", r.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", r.String(), err)
	}
	if r2.String() != r.String() {
		t.Errorf("round trip: %q vs %q", r.String(), r2.String())
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `ans(x, y) :- emp(x, d), dept(d, y), x > 10`
	q := MustParseQuery(src)
	q2, err := ParseQuery(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
	if !strings.Contains(q.String(), ":-") {
		t.Error("query String missing arrow")
	}
}

// TestQuickQueryPrintParseRoundTrip: rendering a random query and parsing
// it back is the identity (up to rendering).
func TestQuickQueryPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		q := randomQuery(rnd, smallInt)
		if q.Validate() != nil {
			return true // generator may emit all-constant heads; skip
		}
		text := q.String()
		q2, err := ParseQuery(text)
		if err != nil {
			t.Logf("re-parse of %q failed: %v", text, err)
			return false
		}
		return q2.String() == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseQuery did not panic on bad input")
		}
	}()
	MustParseQuery("oops")
}
