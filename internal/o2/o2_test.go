package o2

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

var (
	personNames   = []string{"name", "auction"}
	artifactNames = []string{"title", "year", "creator", "price", "owners"}
)

// field is v's field name, nil when it has none.
func field(v Val, name string) Val {
	f, _ := v.Field(name)
	return f
}

// artDB builds the cultural-goods trading database of the paper: Person and
// Artifact classes with the art extents, plus the current_price method.
func artDB(t *testing.T) *DB {
	t.Helper()
	s := NewSchema()
	s.AddClass("Person", TyTuple(
		F("name", TyStr()),
		F("auction", TyFloat()),
	), "persons")
	s.AddClass("Artifact", TyTuple(
		F("title", TyStr()),
		F("year", TyInt()),
		F("creator", TyStr()),
		F("price", TyFloat()),
		F("owners", TyColl(CList, TyClass("Person"))),
	), "artifacts")
	if err := s.AddMethod("Artifact", "current_price", TyFloat(),
		func(db *DB, self *Object) (Val, error) {
			return Float(field(self.Value.Val, "price").AsFloat() * 1.1), nil
		}); err != nil {
		t.Fatal(err)
	}
	db := NewDB(s)
	p1, err := db.NewObject("Person", Tuple(personNames, Str("Doctor X"), Float(1500000)))
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := db.NewObject("Person", Tuple(personNames, Str("Mme Y"), Float(200000)))
	mk := func(title string, year int64, creator string, price float64, owners ...string) {
		refs := make([]Val, len(owners))
		for i, o := range owners {
			refs[i] = Oid(o)
		}
		_, err := db.NewObject("Artifact", Tuple(artifactNames,
			Str(title), Int(year), Str(creator), Float(price), Coll(CList, refs...)))
		if err != nil {
			t.Fatal(err)
		}
	}
	mk("Nympheas", 1897, "Claude Monet", 1500000, p1, p2)
	mk("Waterloo Bridge", 1900, "Claude Monet", 800000, p1)
	mk("Old Canvas", 1750, "Anonymous", 1000, p2)
	return db
}

func TestSchemaAndObjects(t *testing.T) {
	db := artDB(t)
	if db.ExtentSize("artifacts") != 3 || db.ExtentSize("persons") != 2 {
		t.Fatalf("extents = %d/%d", db.ExtentSize("artifacts"), db.ExtentSize("persons"))
	}
	c := db.Schema.ClassByExtent("artifacts")
	if c == nil || c.Name != "Artifact" {
		t.Fatalf("ClassByExtent = %v", c)
	}
	if db.Schema.ClassByExtent("nope") != nil {
		t.Error("unknown extent should be nil")
	}
	oid := db.Extents["artifacts"][0]
	o := db.Get(oid)
	if o == nil || field(o.Value.Val, "title").S != "Nympheas" {
		t.Errorf("object = %+v", o)
	}
}

func TestTypeChecking(t *testing.T) {
	db := artDB(t)
	cases := []Val{
		Tuple(personNames, Int(5), Float(1)),           // wrong field type
		Tuple([]string{"auction"}, Float(1)),           // missing field
		Str("not a tuple"),                             // wrong kind
		Tuple(personNames, Str("x"), Str("not float")), // string for float
	}
	for i, v := range cases {
		if _, err := db.NewObject("Person", v); err == nil {
			t.Errorf("case %d: NewObject should reject %s", i, v)
		}
	}
	// int accepted where float expected
	if _, err := db.NewObject("Person", Tuple(personNames, Str("Z"), Int(5))); err != nil {
		t.Errorf("int should widen to float: %v", err)
	}
	// dangling and mistyped references
	if _, err := db.NewObject("Artifact", Tuple(artifactNames,
		Str("T"), Int(1900), Str("C"), Float(1), Coll(CList, Oid("ghost")))); err == nil {
		t.Error("dangling reference must be rejected")
	}
	if _, err := db.NewObject("Artifact", Tuple(artifactNames,
		Str("T"), Int(1900), Str("C"), Float(1), Coll(CList, Oid(db.Extents["artifacts"][0])))); err == nil {
		t.Error("reference of the wrong class must be rejected")
	}
	if _, err := db.NewObject("Ghost", Nil()); err == nil {
		t.Error("unknown class must be rejected")
	}
}

// section41Query is the OQL query the wrapper generates in Section 4.1.
const section41Query = `
select t: A.title, y: A.year, c: A.creator, p: A.price, n: O.name, au: O.auction
from A in artifacts, O in A.owners
where A.year > 1800`

func TestSection41Query(t *testing.T) {
	db := artDB(t)
	res, err := db.Execute(section41Query)
	if err != nil {
		t.Fatal(err)
	}
	// Nympheas has 2 owners, Waterloo Bridge 1; Old Canvas is pre-1800.
	if res.Kind != VColl || len(res.Elems) != 3 {
		t.Fatalf("result = %s", res)
	}
	first := res.Elems[0]
	if field(first, "t").S != "Nympheas" || field(first, "n").S != "Doctor X" {
		t.Errorf("first row = %s", first)
	}
	if field(first, "y").I != 1897 {
		t.Errorf("year = %s", field(first, "y"))
	}
}

func TestSelectStarAndDistinct(t *testing.T) {
	db := artDB(t)
	res, err := db.Execute(`select * from A in artifacts`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Elems) != 3 || res.Elems[0].Kind != VOid {
		t.Fatalf("select * = %s", res)
	}
	res, err = db.Execute(`select distinct A.creator from A in artifacts`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Elems) != 2 || res.Kind != VColl || res.Col != CSet {
		t.Errorf("distinct creators = %s", res)
	}
}

func TestOrderBy(t *testing.T) {
	db := artDB(t)
	res, err := db.Execute(`select t: A.title, y: A.year from A in artifacts order by y desc`)
	if err != nil {
		t.Fatal(err)
	}
	years := []int64{}
	for _, r := range res.Elems {
		years = append(years, field(r, "y").I)
	}
	if years[0] != 1900 || years[2] != 1750 {
		t.Errorf("order = %v", years)
	}
	if _, err := db.Execute(`select t: A.title from A in artifacts order by ghost`); err == nil {
		t.Error("unknown order key must fail")
	}
}

func TestMethodCall(t *testing.T) {
	db := artDB(t)
	res, err := db.Execute(`select p: A.current_price() from A in artifacts where A.title = "Nympheas"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Elems) != 1 {
		t.Fatalf("rows = %d", len(res.Elems))
	}
	if got := field(res.Elems[0], "p").AsFloat(); got < 1649999 || got > 1650001 {
		t.Errorf("current_price = %v", got)
	}
	if _, err := db.Execute(`select A.nosuch() from A in artifacts`); err == nil {
		t.Error("unknown method must fail")
	}
}

func TestDependentRanges(t *testing.T) {
	db := artDB(t)
	res, err := db.Execute(`select n: O.name from A in artifacts, O in A.owners where A.title = "Nympheas"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Elems) != 2 {
		t.Fatalf("owners = %d", len(res.Elems))
	}
	names := field(res.Elems[0], "n").S + "," + field(res.Elems[1], "n").S
	if names != "Doctor X,Mme Y" {
		t.Errorf("names = %s", names)
	}
}

func TestIndexedAccess(t *testing.T) {
	db := artDB(t)
	if err := db.BuildIndex("Artifact", "creator"); err != nil {
		t.Fatal(err)
	}
	if !db.HasIndex("Artifact", "creator") || db.HasIndex("Artifact", "title") {
		t.Error("HasIndex wrong")
	}
	oids, ok := db.IndexLookup("Artifact", "creator", Str("Claude Monet"))
	if !ok || len(oids) != 2 {
		t.Fatalf("index lookup = %v %v", oids, ok)
	}
	// Indexed and unindexed evaluation agree.
	q := `select t: A.title from A in artifacts where A.creator = "Claude Monet"`
	withIdx, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	db2 := artDB(t)
	without, err := db2.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !withIdx.Equal(without) {
		t.Errorf("indexed %s != scan %s", withIdx, without)
	}
	if err := db.BuildIndex("Ghost", "x"); err == nil {
		t.Error("index on unknown class must fail")
	}
	if err := db.BuildIndex("Artifact", "ghost"); err == nil {
		t.Error("index on unknown attribute must fail")
	}
}

func TestCollectionLiteralRange(t *testing.T) {
	// A range over a collection literal: the values read back as Val.String
	// wrote them (Go string escapes, negative and float numbers), and the
	// query joins the extent with them in literal order.
	db := artDB(t)
	bindings := Coll(CBag,
		Tuple([]string{"i", "c", "y"}, Int(0), Str("Claude Monet"), Int(-1900)),
		Tuple([]string{"i", "c", "y"}, Int(1), Str("a \"q\" \\ \n\t\x00\xff é"), Float(-0.25)),
		Tuple([]string{"i", "c", "y"}, Int(2), Str("Anonymous"), Float(1e300)))
	src := "select bi: B.i, t: A.title from B in " + bindings.String() +
		", A in artifacts where A.creator = B.c and A.year > B.y"
	q, err := ParseOQL(src)
	if err != nil {
		t.Fatal(err)
	}
	if lit := q.Ranges[0].Lit; lit == nil || !lit.Equal(bindings) || lit.String() != bindings.String() {
		t.Fatalf("literal read back as %v, want %s", lit, bindings)
	}
	res, err := db.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	want := `bag(tuple(bi: 0, t: "Nympheas"), tuple(bi: 0, t: "Waterloo Bridge"))`
	if res.String() != want {
		t.Errorf("res = %s\nwant %s", res, want)
	}
	for _, bad := range []string{
		`select x from B in bag(tuple(i 0))`,
		`select x from B in bag(tuple(i: 0)`,
		`select x from B in bag(1 2)`,
		`select x from B in bag(A.title)`,
		`select x from B in tuple(i: 0)`,
		`select x from B in frob(1)`,
	} {
		if _, err := ParseOQL(bad); err == nil {
			t.Errorf("ParseOQL(%q) should fail", bad)
		}
	}
}

func TestOQLParseErrors(t *testing.T) {
	bad := []string{
		``,
		`selec t from a in b`,
		`select from a in b`,
		`select x`,
		`select x from`,
		`select x from a b`,
		`select x from a in`,
		`select x from a in b where`,
		`select x from a in b order x`,
		`select a.f(1) from a in b`,
		`select "unterminated from a in b`,
		`select x from a in b extra`,
		`select 1.2.3 from a in b`,
		`select x from B in bag(tuple(a: 1, a: 2))`, // a field named twice
	}
	for _, src := range bad {
		if _, err := ParseOQL(src); err == nil {
			t.Errorf("ParseOQL(%q) should fail", src)
		}
	}
}

func TestOQLEvalErrors(t *testing.T) {
	db := artDB(t)
	bad := []string{
		`select A.ghost from A in artifacts`,
		`select A.title from A in ghostextent`,
		`select A.title from A in artifacts where A.title`,
		`select A.title from A in artifacts where A.owners > 1`,
		`select A.title from A in artifacts where A.title + 1 = 2`,
		`select A.title from A in artifacts where A.price / 0 = 2`,
		`select O.name from O in artifacts, X in O.title`,
		`select A.title.deeper from A in artifacts`,
		`select A.title, f1: A.year from A in artifacts`, // f1 twice
		`select * from A in artifacts, A in A.owners`,    // A twice
	}
	for _, src := range bad {
		if _, err := db.Execute(src); err == nil {
			t.Errorf("Execute(%q) should fail", src)
		}
	}
}

func TestOQLPrintParseStability(t *testing.T) {
	cases := []string{
		section41Query,
		`select * from A in artifacts`,
		`select distinct A.creator from A in artifacts where A.year > 1800 and not (A.price <= 10) or A.title != "x"`,
		`select t: A.title from A in artifacts order by t desc`,
		`select p: A.current_price() from A in artifacts`,
		`select v: (A.price + 1) * 2 - 3 / 4 from A in artifacts`,
		`select bi: B.i, t: A.title from B in bag(tuple(i: 0, c: "Claude Monet", y: -5, p: 0.5)), A in artifacts where A.creator = B.c and A.year > -1800`,
	}
	for _, src := range cases {
		q, err := ParseOQL(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		printed := q.String()
		q2, err := ParseOQL(printed)
		if err != nil {
			t.Errorf("reparse %q: %v", printed, err)
			continue
		}
		if q2.String() != printed {
			t.Errorf("unstable: %q -> %q", printed, q2.String())
		}
	}
}

func TestValEqualCompare(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("numeric widening in Equal")
	}
	if !Coll(CSet, Int(1), Int(2)).Equal(Coll(CSet, Int(2), Int(1))) {
		t.Error("set equality is order-insensitive")
	}
	if Coll(CList, Int(1), Int(2)).Equal(Coll(CList, Int(2), Int(1))) {
		t.Error("list equality is ordered")
	}
	if Coll(CSet, Int(1)).Equal(Coll(CBag, Int(1))) {
		t.Error("collection kinds differ")
	}
	if !Tuple([]string{"a"}, Int(1)).Equal(Tuple([]string{"a"}, Int(1))) {
		t.Error("tuple equality")
	}
	if Tuple([]string{"a"}, Int(1)).Equal(Tuple([]string{"a"}, Int(2))) {
		t.Error("tuple field inequality")
	}
	if Str("a").Compare(Str("b")) != -1 || Int(2).Compare(Int(1)) != 1 {
		t.Error("compare basics")
	}
}

func TestValString(t *testing.T) {
	v := Tuple([]string{"t", "o"}, Str("Nympheas"), Coll(CList, Oid("p1")))
	s := v.String()
	for _, frag := range []string{`t: "Nympheas"`, "list(&p1)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Val.String missing %q: %s", frag, s)
		}
	}
}

func TestPropertyIndexedEqualsScan(t *testing.T) {
	// Build a database with n artifacts over a small creator domain; the
	// indexed plan must return the same rows as the scan for any creator.
	f := func(seed int64) bool {
		s := NewSchema()
		s.AddClass("A", TyTuple(F("c", TyStr()), F("v", TyInt())), "as")
		db := NewDB(s)
		db2 := NewDB(s)
		x := seed
		next := func(n int64) int64 {
			x = x*6364136223846793005 + 1442695040888963407
			v := (x >> 33) % n
			if v < 0 {
				v = -v
			}
			return v
		}
		for i := int64(0); i < 20; i++ {
			v := Tuple([]string{"c", "v"}, Str(string(rune('a'+next(4)))), Int(next(100)))
			db.NewObject("A", v)
			db2.NewObject("A", v)
		}
		if err := db.BuildIndex("A", "c"); err != nil {
			return false
		}
		q := `select v: A.v from A in as where A.c = "b"`
		r1, err1 := db.Execute(q)
		r2, err2 := db2.Execute(q)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Equal(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOQLPrintParse(t *testing.T) {
	// Random query generator: print/parse must be a fixpoint.
	s := int64(99)
	next := func(n int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := (s >> 33) % n
		if v < 0 {
			v = -v
		}
		return v
	}
	attrs := []string{"title", "year", "creator", "price"}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	for i := 0; i < 200; i++ {
		proj := fmt.Sprintf("a%d: A.%s", i, attrs[next(int64(len(attrs)))])
		if next(3) == 0 {
			proj += fmt.Sprintf(", b%d: O.name", i)
		}
		where := ""
		if next(2) == 0 {
			where = fmt.Sprintf(" where A.%s %s %d and not (A.price > %d.5) or A.title = \"x%d\"",
				attrs[next(int64(len(attrs)))], ops[next(int64(len(ops)))], next(2000), next(1000), next(50))
		}
		order := ""
		if next(3) == 0 {
			order = fmt.Sprintf(" order by a%d desc", i)
		}
		src := "select " + proj + " from A in artifacts, O in A.owners" + where + order
		q, err := ParseOQL(src)
		if err != nil {
			t.Fatalf("seed %d: parse %q: %v", i, src, err)
		}
		printed := q.String()
		q2, err := ParseOQL(printed)
		if err != nil {
			t.Fatalf("seed %d: reparse %q: %v", i, printed, err)
		}
		if q2.String() != printed {
			t.Fatalf("seed %d: unstable:\n%s\nvs\n%s", i, printed, q2.String())
		}
	}
}
