package waiswrap

import (
	"context"
	"net"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/feed"
	"repro/internal/filter"
	"repro/internal/tab"
	"repro/internal/wire"
)

// containsPlan selects the works containing the DJoin parameter $text.
var containsPlan = &algebra.Select{
	From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
	Pred: algebra.Call{Name: "contains", Args: []algebra.Expr{algebra.Var{Name: "$w"}, algebra.Var{Name: "$text"}}},
}

func text(s string) map[string]tab.Cell {
	return map[string]tab.Cell{"$text": tab.AtomCell(data.String(s))}
}

// sources returns the wrapper in-process and behind a loopback wire server.
func sources(t *testing.T, w *Wrapper) map[string]algebra.Source {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(ln, wire.Exported{Source: w, Interface: w.ExportInterface()})
	t.Cleanup(func() { srv.Close() })
	client, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return map[string]algebra.Source{"in-process": w, "wire": client}
}

func TestPushBatchEqualsPushPerBinding(t *testing.T) {
	// A full-text engine has no set form: algebra.PushBatch answers a batch
	// binding by binding, in-process and at a wire server alike, and each
	// answer must be exactly the scalar push of that binding.
	bindings := []map[string]tab.Cell{text("Giverny"), text("Impressionist"), text("Cubism"), text("Oil")}
	// A failing binding arrives named, under the server's "push:" context
	// over the wire.
	failPrefix := map[string]string{"in-process": "binding 1: ", "wire": "wire: remote error: push: binding 1: "}
	for name, src := range sources(t, wrapper()) {
		got, err := algebra.PushBatch(context.Background(), src, containsPlan, bindings)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		empty := 0
		for i, b := range bindings {
			want, err := src.Push(containsPlan, b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", name, i, err)
			}
			if !got[i].Equal(want) {
				t.Errorf("%s binding %d: batch\n%s\nscalar push\n%s", name, i, got[i], want)
			}
			if want.Len() == 0 {
				empty++
			}
		}
		if empty != 1 {
			t.Errorf("%s: %d bindings match nothing, want exactly 1", name, empty)
		}

		// A binding without the search text fails, and the batch names it.
		bad := []map[string]tab.Cell{text("Giverny"), {}, text("Oil")}
		if _, err := algebra.PushBatch(context.Background(), src, containsPlan, bad); err == nil || !strings.HasPrefix(err.Error(), failPrefix[name]) {
			t.Errorf("%s: failing binding reported as %v, want the prefix %q", name, err, failPrefix[name])
		}
	}
}

func TestPushEqualsAlgebraOverFetch(t *testing.T) {
	// What the wrapper declares it answers as the algebra would: every push
	// is bag-equal to the plan evaluated over the fetched works, with the
	// mediator's functions registered, in-process and over wire. Texts
	// without search terms ("", "!!", "é") restrict nothing: Contains holds
	// for every work.
	renamed := &algebra.Project{
		From: &algebra.Select{
			From: containsPlan,
			Pred: algebra.MustParseExpr(`contains($w, "Monet")`),
		},
		Cols: []string{"$doc=$w", "$again=$w"},
	}
	bindings := []map[string]tab.Cell{
		text("Giverny"), text("Impressionist"), text("Cubism"), text("Oil"),
		text(""), text("!!"), text("é"),
	}
	for name, src := range sources(t, wrapper()) {
		works, err := src.Fetch("works")
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []algebra.Op{containsPlan, renamed} {
			for _, b := range bindings {
				got, err := src.Push(plan, b)
				if err != nil {
					t.Fatalf("%s %q: %v", name, b["$text"].Atom.S, err)
				}
				ctx := algebra.NewContext()
				ctx.Catalog["works"] = works
				ctx.Params = b
				ctx.Funcs["contains"] = Contains
				ctx.Funcs["prefix"] = feed.Prefix
				want, err := exec.RunSerial(plan, ctx)
				if err != nil {
					t.Fatalf("%s %q over the fetched works: %v", name, b["$text"].Atom.S, err)
				}
				if !got.EqualUnordered(want) {
					t.Errorf("%s %q: push\n%s\nalgebra over the fetched works\n%s", name, b["$text"].Atom.S, got, want)
				}
			}
		}
	}
}
