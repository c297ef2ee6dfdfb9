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
	"repro/internal/o2wrap"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// deployO2 starts an O₂ wrapper server on an ephemeral port.
func deployO2(t *testing.T) *wire.Server {
	t.Helper()
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
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
