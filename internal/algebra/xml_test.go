package algebra_test

import (
	"fmt"
	. "repro/internal/algebra"
	"repro/internal/exec"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/tab"
)

func samplePlans() []Op {
	lit := tab.New("$x")
	lit.Add(tab.AtomCell(data.Int(1)))
	bindWorks := &Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t, style: $s, *($fields) ] ]`)}
	bindArts := &Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t2, price: $p ] ] ]`)}
	return []Op{
		&Doc{Name: "artifacts"},
		bindWorks,
		&Select{From: bindWorks, Pred: MustParseExpr(`$s = "Impressionist" AND contains($fields, "Giverny")`)},
		&Project{From: bindWorks, Cols: []string{"title=$t", "$s"}},
		&MapExpr{From: bindWorks, Col: "$n", E: MustParseExpr(`1 + 2 * 3`)},
		&Join{L: bindWorks, R: bindArts, Pred: MustParseExpr(`$t = $t2`)},
		&DJoin{L: bindWorks, R: &Bind{Col: "$fields", F: filter.MustParse(`cplace: $cl`)}},
		&Union{L: bindWorks, R: bindWorks},
		&Intersect{L: bindWorks, R: bindWorks},
		&Distinct{From: bindWorks},
		&Group{From: bindWorks, Keys: []string{"$s"}, Into: "$g"},
		&Sort{From: bindWorks, Cols: []string{"$t"}},
		&TreeOp{From: bindWorks, C: MustParseCons(`doc[ *w($t) := work[ title: $t, note: "a b  c" ] ]`), OutCol: "$out"},
		&SourceQuery{Source: "o2artifact", Plan: bindArts},
		&Literal{T: lit},
	}
}

func TestPlanXMLRoundTrip(t *testing.T) {
	for _, plan := range samplePlans() {
		s, err := MarshalPlan(plan)
		if err != nil {
			t.Errorf("marshal %s: %v", plan.Detail(), err)
			continue
		}
		back, err := UnmarshalPlan(s)
		if err != nil {
			t.Errorf("unmarshal %s: %v\n%s", plan.Detail(), err, s)
			continue
		}
		if Describe(back) != Describe(plan) {
			t.Errorf("round trip changed plan:\n%s\nvs\n%s\nxml: %s",
				Describe(plan), Describe(back), s)
		}
	}
}

func TestPlanXMLPreservesStringConstants(t *testing.T) {
	// Embedded string constants with awkward characters must survive.
	plan := &Select{
		From: &Bind{Doc: "works", F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
		Pred: MustParseExpr(`$t = "a <b> & \"c\"  double  space"`),
	}
	s, err := MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(s)
	if err != nil {
		t.Fatalf("%v\n%s", err, s)
	}
	if Describe(back) != Describe(plan) {
		t.Errorf("constants corrupted:\n%s\nvs\n%s", Describe(plan), Describe(back))
	}
}

func TestPlanXMLExecutesAfterRoundTrip(t *testing.T) {
	ctx := worksCtx()
	plan := &Select{
		From: &Bind{Doc: "artworks", F: filter.MustParse(fig4FilterSrc)},
		Pred: MustParseExpr(`$a = "Claude Monet"`),
	}
	s, err := MarshalPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.RunSerial(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSerial(back, worksCtx())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Errorf("deserialized plan computed differently")
	}
}

func TestPlanXMLErrors(t *testing.T) {
	bad := []string{
		`<mystery/>`,
		`<select pred="$x ="><from><doc name="a"/></from></select>`,
		`<select pred="$x = 1"/>`,
		`<join pred="$x = 1"><left><doc name="a"/></left></join>`,
		`<bind filter="broken["/>`,
		`<tree cons="broken[" ><from><doc name="a"/></from></tree>`,
		`<sourcequery source="s"/>`,
		`<literal><notatab/></literal>`,
	}
	for _, src := range bad {
		if _, err := UnmarshalPlan(src); err == nil {
			t.Errorf("UnmarshalPlan(%q) should fail", src)
		}
	}
}

func TestDetailStrings(t *testing.T) {
	for _, plan := range samplePlans() {
		if strings.TrimSpace(plan.Detail()) == "" {
			t.Errorf("empty detail for %T", plan)
		}
	}
}

// genPlan builds a pseudo-random plan for serialization property tests.
func genPlan(seed int64, depth int) Op {
	s := seed
	next := func(n int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := (s >> 33) % n
		if v < 0 {
			v = -v
		}
		return v
	}
	filters := []string{
		`works[ *work[ title: $t%d ] ]`,
		`set[ *class[ artifact.tuple[ year: $y%d, price: $p%d ] ] ]`,
		`doc[ *work@$w%d[ style: "Impressionist", *($f%d) ] ]`,
	}
	leaf := func() Op {
		src := filters[next(int64(len(filters)))]
		src = strings.ReplaceAll(src, "%d", fmt.Sprint(next(1000)))
		return &Bind{Doc: "works", F: filter.MustParse(src)}
	}
	var build func(d int) Op
	build = func(d int) Op {
		if d <= 0 {
			return leaf()
		}
		switch next(8) {
		case 0:
			return &Select{From: build(d - 1), Pred: MustParseExpr(fmt.Sprintf(`$x%d = %d`, next(10), next(100)))}
		case 1:
			return &Project{From: build(d - 1), Cols: []string{fmt.Sprintf("$a%d=$b%d", next(10), next(10))}}
		case 2:
			return &Join{L: build(d - 1), R: build(d - 1), Pred: MustParseExpr(fmt.Sprintf(`$l%d = $r%d`, next(10), next(10)))}
		case 3:
			return &DJoin{L: build(d - 1), R: build(d - 1)}
		case 4:
			return &Distinct{From: build(d - 1)}
		case 5:
			return &TreeOp{From: build(d - 1), C: MustParseCons(fmt.Sprintf(`doc[ *w($k%d) := item[ k: $k%d ] ]`, next(10), next(10)))}
		case 6:
			return &SourceQuery{Source: "s", Plan: build(d - 1)}
		default:
			return &Union{L: build(d - 1), R: build(d - 1)}
		}
	}
	return build(depth)
}

func TestPropertyRandomPlanXMLRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		plan := genPlan(seed, 3)
		s, err := MarshalPlan(plan)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		back, err := UnmarshalPlan(s)
		if err != nil {
			t.Fatalf("seed %d: unmarshal: %v\n%s", seed, err, s)
		}
		if Describe(back) != Describe(plan) {
			t.Fatalf("seed %d: round trip changed plan:\n%s\nvs\n%s",
				seed, Describe(plan), Describe(back))
		}
	}
}
