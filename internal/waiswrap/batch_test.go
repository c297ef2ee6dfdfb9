package waiswrap

import (
	"context"
	"net"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/tab"
	"repro/internal/wire"
)

func TestPushBatchEqualsPushPerBinding(t *testing.T) {
	// A full-text engine has no set form: algebra.PushBatch answers a batch
	// binding by binding, in-process and at a wire server alike, and each
	// answer must be exactly the scalar push of that binding.
	w := wrapper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(ln, wire.Exported{Source: w, Interface: w.ExportInterface()})
	defer srv.Close()
	client, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "works", F: filter.MustParse(`works[ *work@$w ]`)},
		Pred: algebra.Call{Name: "contains", Args: []algebra.Expr{algebra.Var{Name: "$w"}, algebra.Var{Name: "$text"}}},
	}
	text := func(s string) map[string]tab.Cell { return map[string]tab.Cell{"$text": tab.AtomCell(data.String(s))} }
	bindings := []map[string]tab.Cell{text("Giverny"), text("Impressionist"), text("Cubism"), text("Oil")}
	// A failing binding arrives named, under the server's "push:" context
	// over the wire.
	failPrefix := map[string]string{"in-process": "binding 1: ", "wire": "wire: remote error: push: binding 1: "}
	for name, src := range map[string]algebra.Source{"in-process": w, "wire": client} {
		got, err := algebra.PushBatch(context.Background(), src, plan, bindings)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		empty := 0
		for i, b := range bindings {
			want, err := src.Push(plan, b)
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
		if _, err := algebra.PushBatch(context.Background(), src, plan, bad); err == nil || !strings.HasPrefix(err.Error(), failPrefix[name]) {
			t.Errorf("%s: failing binding reported as %v, want the prefix %q", name, err, failPrefix[name])
		}
	}
}
