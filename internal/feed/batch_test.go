package feed_test

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

// lookupPlan selects the records whose field equals the DJoin parameter $k.
func lookupPlan(field string) algebra.Op {
	return &algebra.Select{
		From: &algebra.Bind{Doc: "records", F: filter.MustParse(
			`records[ *record[ id: $id, title: $t, ` + field + `: $f ] ]`)},
		Pred: algebra.MustParseExpr(`$f = $k`),
	}
}

func TestPushBatchEqualsPushPerBinding(t *testing.T) {
	// The wrapper has no set form of its own: algebra.PushBatch answers a
	// batch binding by binding, in-process and at a wire server alike, and
	// each answer must be exactly the scalar push of that binding.
	w, c := feedFixture(t)
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

	str := func(s string) map[string]tab.Cell { return map[string]tab.Cell{"$k": tab.AtomCell(data.String(s))} }
	prefix := &algebra.Select{
		From: &algebra.Bind{Doc: "records", F: filter.MustParse(`records[ *record[ id: $id, journal: $j ] ]`)},
		Pred: algebra.MustParseExpr(`prefix($j, $k)`),
	}
	cases := []struct {
		name     string
		plan     algebra.Op
		bindings []map[string]tab.Cell
	}{
		{"id", lookupPlan("id"), []map[string]tab.Cell{str(c.Records[0].ID), str("rec-nosuch"), str(c.Records[7].ID)}},
		{"issn", lookupPlan("issn"), []map[string]tab.Cell{str(c.Records[3].ISSN), str(c.Records[9].ISSN), str("0000-0000")}},
		{"prefix", prefix, []map[string]tab.Cell{str("Journal of"), str("No such journal"), str("Revue")}},
	}
	// A failing binding arrives named, under the server's "push:" context
	// over the wire.
	failPrefix := map[string]string{"in-process": "binding 2: ", "wire": "wire: remote error: push: binding 2: "}
	for name, src := range map[string]algebra.Source{"in-process": w, "wire": client} {
		for _, tc := range cases {
			got, err := algebra.PushBatch(context.Background(), src, tc.plan, tc.bindings)
			if err != nil {
				t.Fatalf("%s %s: %v", name, tc.name, err)
			}
			empty := 0
			for i, b := range tc.bindings {
				want, err := src.Push(tc.plan, b)
				if err != nil {
					t.Fatalf("%s %s binding %d: %v", name, tc.name, i, err)
				}
				if !got[i].Equal(want) {
					t.Errorf("%s %s binding %d: batch\n%s\nscalar push\n%s", name, tc.name, i, got[i], want)
				}
				if want.Len() == 0 {
					empty++
				}
			}
			if empty != 1 {
				t.Errorf("%s %s: %d bindings match nothing, want exactly 1", name, tc.name, empty)
			}
		}

		// A binding without a prefix fails, and the batch names it.
		bad := []map[string]tab.Cell{str("Journal of"), str("Revue"), {}}
		if _, err := algebra.PushBatch(context.Background(), src, prefix, bad); err == nil || !strings.HasPrefix(err.Error(), failPrefix[name]) {
			t.Errorf("%s: failing binding reported as %v, want the prefix %q", name, err, failPrefix[name])
		}
	}
}
