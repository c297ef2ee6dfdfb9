package algebra_test

import (
	. "repro/internal/algebra"
	"repro/internal/exec"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/tab"
)

func TestExprVarsAndStrings(t *testing.T) {
	cases := []struct {
		src  string
		vars []string
	}{
		{`$a = $b`, []string{"$a", "$b"}},
		{`$a + $b * $c`, []string{"$a", "$b", "$c"}},
		{`NOT ($x = 1) AND $y < 2 OR $z >= 3`, []string{"$x", "$y", "$z"}},
		{`contains($w, "text")`, []string{"$w"}},
		{`true`, nil},
		{`"const"`, nil},
	}
	for _, c := range cases {
		e := MustParseExpr(c.src)
		got := append([]string(nil), e.Vars()...)
		sort.Strings(got)
		want := append([]string(nil), c.vars...)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: Vars = %v, want %v", c.src, got, want)
		}
		// String round-trips through the parser.
		back, err := ParseExpr(e.String())
		if err != nil {
			t.Errorf("reparse %q: %v", e.String(), err)
			continue
		}
		if back.String() != e.String() {
			t.Errorf("unstable: %q -> %q", e.String(), back.String())
		}
	}
}

func TestExprHelpers(t *testing.T) {
	if Eq(Var{"$a"}, Var{"$b"}).String() != "$a = $b" {
		t.Error("Eq")
	}
	if VarEq("$a", "$b").String() != "$a = $b" {
		t.Error("VarEq")
	}
	if Conj().String() != "true" {
		t.Error("empty Conj is true")
	}
	one := MustParseExpr(`$a = 1`)
	if Conj(one, nil).String() != one.String() {
		t.Error("Conj skips nils")
	}
	conj := Conj(one, MustParseExpr(`$b = 2`), MustParseExpr(`$c = 3`))
	if len(SplitConj(conj)) != 3 {
		t.Errorf("SplitConj = %v", SplitConj(conj))
	}
	if len(SplitConj(TrueExpr())) != 0 {
		t.Error("SplitConj(true) is empty")
	}
	if a, b, ok := EqColumns(MustParseExpr(`$x = $y`)); !ok || a != "$x" || b != "$y" {
		t.Error("EqColumns on var=var")
	}
	if _, _, ok := EqColumns(MustParseExpr(`$x = 1`)); ok {
		t.Error("EqColumns must reject var=const")
	}
	if _, _, ok := EqColumns(MustParseExpr(`$x < $y`)); ok {
		t.Error("EqColumns must reject non-eq")
	}
}

func TestBuiltinIDFunction(t *testing.T) {
	ctx := NewContext()
	fn := ctx.Funcs["id"]
	ident := data.Elem("class").WithID("a1")
	v, err := fn([]tab.Cell{tab.TreeCell(ident)})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := v.AsAtom(); a.S != "a1" {
		t.Errorf("id(identified) = %v", a)
	}
	ref := data.RefNode("owner", "p7")
	v, err = fn([]tab.Cell{tab.TreeCell(ref)})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := v.AsAtom(); a.S != "p7" {
		t.Errorf("id(ref) = %v", a)
	}
	v, err = fn([]tab.Cell{tab.TreeCell(data.Elem("anon"))})
	if err != nil || !v.IsNull() {
		t.Errorf("id(anonymous) = %v, %v", v, err)
	}
	if _, err := fn([]tab.Cell{tab.AtomCell(data.Int(1))}); err == nil {
		t.Error("id of non-tree must fail")
	}
	if _, err := fn(nil); err == nil {
		t.Error("id arity check")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{SourceFetches: 1, SourcePushes: 2, TuplesShipped: 3, BytesShipped: 4, FuncCalls: 5, BindRows: 6,
		CacheHits: 7, CacheMisses: 8, CacheEvictions: 9}
	b := Stats{SourceFetches: 10, SourcePushes: 20, TuplesShipped: 30, BytesShipped: 40, FuncCalls: 50, BindRows: 60,
		CacheHits: 70, CacheMisses: 80, CacheEvictions: 90}
	a.Add(b)
	if a.SourceFetches != 11 || a.SourcePushes != 22 || a.TuplesShipped != 33 ||
		a.BytesShipped != 44 || a.FuncCalls != 55 || a.BindRows != 66 ||
		a.CacheHits != 77 || a.CacheMisses != 88 || a.CacheEvictions != 99 {
		t.Errorf("Stats.Add = %+v", a)
	}
}

func TestConsVarHelpers(t *testing.T) {
	c := MustParseCons(`doc[ *artwork($t, $c) := work[ title: $t, owner: &person($o) ], note: $n ]`)
	direct := strings.Join(c.DirectVars(), ",")
	if direct != "$n" {
		t.Errorf("DirectVars = %q (starred kids excluded)", direct)
	}
	all := strings.Join(c.AllVars(), ",")
	for _, v := range []string{"$t", "$c", "$o", "$n"} {
		if !strings.Contains(all, v) {
			t.Errorf("AllVars missing %s: %q", v, all)
		}
	}
}

func TestBindParamErrorAndUnknownColumn(t *testing.T) {
	ctx := NewContext()
	b := &Bind{Col: "$missing", F: mustFilter(t, `x: $v`)}
	if _, err := exec.RunSerial(b, ctx); err == nil {
		t.Error("bind over unbound parameter must fail")
	}
	lit := tab.New("$a")
	lit.Add(tab.AtomCell(data.Int(1)))
	b2 := &Bind{From: &Literal{T: lit}, Col: "$nope", F: mustFilter(t, `x: $v`)}
	if _, err := exec.RunSerial(b2, ctx); err == nil {
		t.Error("bind over unknown column must fail")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	lit := tab.New("$s")
	lit.Add(tab.AtomCell(data.String("x")))
	m := &MapExpr{From: &Literal{T: lit}, Col: "$y", E: MustParseExpr(`$s + 1`)}
	if _, err := exec.RunSerial(m, NewContext()); err == nil {
		t.Error("map over type error must fail")
	}
	s := &Select{From: &Literal{T: lit}, Pred: MustParseExpr(`$s + 1`)}
	if _, err := exec.RunSerial(s, NewContext()); err == nil {
		t.Error("non-boolean predicate must fail")
	}
}

func TestSortAndGroupDetails(t *testing.T) {
	lit := tab.New("$k", "$v")
	lit.Add(tab.AtomCell(data.String("b")), tab.AtomCell(data.Int(1)))
	lit.Add(tab.AtomCell(data.String("a")), tab.AtomCell(data.Int(2)))
	lit.Add(tab.AtomCell(data.String("a")), tab.AtomCell(data.Int(3)))
	srt := &Sort{From: &Literal{T: lit}, Cols: []string{"$k", "$v"}}
	if !strings.Contains(srt.Detail(), "$k") {
		t.Error("Sort detail")
	}
	res, err := exec.RunSerial(srt, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := res.Rows[0][1].AsAtom(); a.I != 2 {
		t.Errorf("sorted first = %v", res.Rows[0])
	}
	grp := &Group{From: &Literal{T: lit}, Keys: []string{"$k"}, Into: "$g"}
	gres, err := exec.RunSerial(grp, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if gres.Len() != 2 || gres.Rows[1][1].Tab.Len() != 2 {
		t.Errorf("group = %s", gres)
	}
	if !strings.Contains(grp.Detail(), "⇒ $g") {
		t.Error("Group detail")
	}
}

func mustFilter(t *testing.T, src string) *filter.Filter {
	t.Helper()
	f, err := filter.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLiteralColumnsAreNotShared: two parents appending their own column to
// one literal's columns must not write into each other's slices, whatever
// spare capacity the tab's column slice has.
func TestLiteralColumnsAreNotShared(t *testing.T) {
	for n := 1; n <= 20; n++ {
		cols := make([]string, n)
		for i := range cols {
			cols[i] = "$c" + string(rune('a'+i))
		}
		lit := &Literal{T: tab.New(cols...)}
		x := &MapExpr{From: lit, Col: "$x"}
		y := &MapExpr{From: lit, Col: "$y"}
		xs := x.Columns()
		ys := y.Columns()
		if got := xs[len(xs)-1]; got != "$x" {
			t.Errorf("n=%d: the $x map's last column is %s once the $y map is asked (%v)", n, got, ys)
		}
		if got := lit.Columns(); len(got) != n {
			t.Errorf("n=%d: the literal has %d columns", n, len(got))
		}
	}
}
