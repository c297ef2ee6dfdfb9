// Mediator-level tests over the wire live in an external test package:
// the mediator imports wire (error classification for its circuit
// breakers), so an in-package test importing mediator would be a cycle.
package wire_test

import (
	"context"
	"net"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/mediator"
	"repro/internal/o2"
	"repro/internal/o2wrap"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// deployO2 starts an O₂ wrapper server over the paper's database on an
// ephemeral port.
func deployO2(t *testing.T) *wire.Server {
	t.Helper()
	return serveO2(t, o2wrap.New("o2artifact", datagen.PaperDB()))
}

func serveO2(t *testing.T, ow *o2wrap.Wrapper) *wire.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	schema := ow.ExportSchema()
	srv := wire.Serve(ln, wire.Exported{
		Source:    ow,
		Interface: ow.ExportInterface(),
		Structures: map[string]wire.StructureRef{
			"artifacts": {Model: schema, Pattern: "Artifact"},
			"persons":   {Model: schema, Pattern: "Person"},
		},
	})
	t.Cleanup(srv.Close)
	return srv
}

// deployWais starts a WAIS wrapper server on an ephemeral port.
func deployWais(t *testing.T) *wire.Server {
	t.Helper()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(ln, wire.Exported{
		Source:    ww,
		Interface: ww.ExportInterface(),
		Structures: map[string]wire.StructureRef{
			"works": {Model: ww.ExportStructure(), Pattern: "Works"},
		},
	})
	t.Cleanup(srv.Close)
	return srv
}

func TestDistributedFigure2Deployment(t *testing.T) {
	// The full Figure 2 scenario over TCP: two wrapper servers, a mediator
	// connecting through wire clients, view1 loaded, Q1 and Q2 evaluated.
	o2srv := deployO2(t)
	waissrv := deployWais(t)

	m := mediator.New()
	for _, addr := range []string{o2srv.Addr(), waissrv.Addr()} {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		iface, err := c.ImportInterface()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Connect(c, iface); err != nil {
			t.Fatal(err)
		}
		sts, err := c.ImportStructures()
		if err != nil {
			t.Fatal(err)
		}
		for doc, ref := range sts {
			m.ImportStructure(doc, ref.Model, ref.Pattern)
		}
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		t.Fatal(err)
	}
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")

	q1, err := m.Query(datagen.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Tab.Len() != 1 {
		t.Fatalf("distributed Q1 rows = %d\n%s", q1.Tab.Len(), q1.Plan)
	}
	if a, _ := q1.Tab.Rows[0][0].AsAtom(); a.S != "Nympheas" {
		t.Errorf("Q1 = %v", q1.Tab.Rows[0])
	}

	q2, err := m.Query(datagen.Q2Src)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Tab.Len() != 1 || q2.Tab.Rows[0][0].Tree.Child("title").Atom.S != "Waterloo Bridge" {
		t.Fatalf("distributed Q2 = %s\nplan:\n%s", q2.Tab, q2.Plan)
	}
	if !strings.Contains(q2.Plan, "SourceQuery") {
		t.Errorf("distributed plan must push to sources:\n%s", q2.Plan)
	}
}

func TestDistributedNaiveQueryAgrees(t *testing.T) {
	// Even the naive strategy (materialize the view from fetched documents)
	// works over the wire and agrees with the optimized result: fetched
	// atoms are retyped so year comparisons behave.
	o2srv := deployO2(t)
	waissrv := deployWais(t)
	m := mediator.New()
	for _, addr := range []string{o2srv.Addr(), waissrv.Addr()} {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		iface, err := c.ImportInterface()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Connect(c, iface); err != nil {
			t.Fatal(err)
		}
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		t.Fatal(err)
	}
	composed, err := m.Compose(datagen.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := m.ExecutePlan(context.Background(), composed, mediator.ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(datagen.Q1Src)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Tab.Len() != 1 || !naive.Tab.EqualUnordered(opt.Tab) {
		t.Errorf("naive:\n%s\noptimized:\n%s", naive.Tab, opt.Tab)
	}
	if naive.Stats.SourceFetches == 0 {
		t.Error("naive strategy must fetch documents")
	}
}

// TestPushedConstantsSurviveTheWire pins the plan codec on the constants a
// pushed Select carries: strings with escaped bytes, a non-ASCII rune or a
// backslash, and a float that prints with an exponent select the same rows
// at an O₂ wrapper behind wire as at the same wrapper in-process. The rows
// are the distinct prices, not the titles: the reply codec turns a title's
// newline or tab into a space, which is a different layer's defect.
func TestPushedConstantsSurviveTheWire(t *testing.T) {
	titles := []string{"a\nb", "a\tb", "a\x01b", "é", `a\b`}
	db := o2.NewDB(datagen.NewTradingSchema())
	for i, title := range titles {
		if _, err := db.NewObject("Artifact", o2.Tuple("title", o2.Str(title), "year", o2.Int(1900),
			"creator", o2.Str("X"), "price", o2.Float(2500000.5*float64(i)), "owners", o2.Coll(o2.CList))); err != nil {
			t.Fatal(err)
		}
	}
	ow := o2wrap.New("o2artifact", db)
	local := mediator.New()
	if err := local.Connect(ow, ow.ExportInterface()); err != nil {
		t.Fatal(err)
	}
	local.ImportStructure("artifacts", ow.ExportSchema(), "Artifact")
	c, err := wire.Dial(serveO2(t, ow).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	iface, err := c.ImportInterface()
	if err != nil {
		t.Fatal(err)
	}
	remote := mediator.New()
	if err := remote.Connect(c, iface); err != nil {
		t.Fatal(err)
	}
	remote.ImportStructure("artifacts", ow.ExportSchema(), "Artifact")

	const match = `MAKE $p MATCH artifacts WITH set[ *class[ artifact.tuple[ title: $t, price: $p ] ] ] WHERE `
	// Raw bytes in the query text: only the wire has escapes to get right.
	quote := strings.NewReplacer(`\`, `\\`, `"`, `\"`)
	var queries []string
	for _, title := range titles {
		queries = append(queries, match+`$t = "`+quote.Replace(title)+`"`)
	}
	queries = append(queries, match+"$p > 2000000.0")
	for _, q := range queries {
		want, err := local.Query(q)
		if err != nil {
			t.Fatalf("in-process %q: %v", q, err)
		}
		if want.Tab.Len() == 0 || !strings.Contains(want.Plan, "SourceQuery") {
			t.Fatalf("in-process %q: %d rows, plan:\n%s", q, want.Tab.Len(), want.Plan)
		}
		got, err := remote.Query(q)
		if err != nil {
			t.Errorf("over wire %q: %v", q, err)
			continue
		}
		if !got.Tab.EqualUnordered(want.Tab) {
			t.Errorf("%q: over wire\n%s\nin-process\n%s", q, got.Tab, want.Tab)
		}
	}
}
