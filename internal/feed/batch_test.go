package feed_test

import (
	"context"
	"net"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/feed"
	"repro/internal/filter"
	"repro/internal/tab"
	"repro/internal/waiswrap"
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

// prefixPlan selects the records whose journal starts with $k.
var prefixPlan = &algebra.Select{
	From: &algebra.Bind{Doc: "records", F: filter.MustParse(`records[ *record[ id: $id, journal: $j ] ]`)},
	Pred: algebra.MustParseExpr(`prefix($j, $k)`),
}

// issnTitlePlan selects the record with ISSN $k if its title starts with
// $p: two indexed conjuncts, whose lookups the wrapper intersects.
var issnTitlePlan = &algebra.Select{
	From: &algebra.Bind{Doc: "records", F: filter.MustParse(`records[ *record[ id: $id, issn: $i, title: $t ] ]`)},
	Pred: algebra.MustParseExpr(`$i = $k AND prefix($t, $p)`),
}

func key(s string) map[string]tab.Cell {
	return map[string]tab.Cell{"$k": tab.AtomCell(data.String(s))}
}

// keyPrefix binds $k to k and $p to p.
func keyPrefix(k, p string) map[string]tab.Cell {
	b := key(k)
	b["$p"] = tab.AtomCell(data.String(p))
	return b
}

// pushCases are the id, issn and prefix lookups and the issn-and-title-prefix
// intersection, each with one binding that matches nothing; the
// intersection's matches nothing though both of its lookups hit.
func pushCases(c *datagen.FeedCorpus) []struct {
	name     string
	plan     algebra.Op
	bindings []map[string]tab.Cell
} {
	return []struct {
		name     string
		plan     algebra.Op
		bindings []map[string]tab.Cell
	}{
		{"id", lookupPlan("id"), []map[string]tab.Cell{key(c.Records[0].ID), key("rec-nosuch"), key(c.Records[7].ID)}},
		{"issn", lookupPlan("issn"), []map[string]tab.Cell{key(c.Records[3].ISSN), key(c.Records[9].ISSN), key("0000-0000")}},
		{"prefix", prefixPlan, []map[string]tab.Cell{key("Journal of"), key("No such journal"), key("Revue")}},
		{"issn+title", issnTitlePlan, []map[string]tab.Cell{keyPrefix(c.Records[3].ISSN, "Painting"),
			keyPrefix(c.Records[9].ISSN, c.Records[3].Title), keyPrefix(c.Records[12].ISSN, c.Records[12].Title)}},
	}
}

// sources returns the wrapper in-process and behind a loopback wire server.
func sources(t *testing.T, w *feed.Wrapper) map[string]algebra.Source {
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
	// The wrapper has no set form of its own: algebra.PushBatch answers a
	// batch binding by binding, in-process and at a wire server alike, and
	// each answer must be exactly the scalar push of that binding.
	w, c := feedFixture(t)
	// A failing binding arrives named, under the server's "push:" context
	// over the wire.
	failPrefix := map[string]string{"in-process": "binding 2: ", "wire": "wire: remote error: push: binding 2: "}
	for name, src := range sources(t, w) {
		for _, tc := range pushCases(c) {
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
		bad := []map[string]tab.Cell{key("Journal of"), key("Revue"), {}}
		if _, err := algebra.PushBatch(context.Background(), src, prefixPlan, bad); err == nil || !strings.HasPrefix(err.Error(), failPrefix[name]) {
			t.Errorf("%s: failing binding reported as %v, want the prefix %q", name, err, failPrefix[name])
		}
	}
}

func TestPushEqualsAlgebraOverFetch(t *testing.T) {
	// What the wrapper declares it answers as the algebra would: every push
	// is bag-equal to the plan evaluated over the fetched records, with the
	// mediator's functions registered, in-process and over wire.
	w, c := feedFixture(t)
	for name, src := range sources(t, w) {
		records, err := src.Fetch("records")
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range pushCases(c) {
			for i, b := range tc.bindings {
				got, err := src.Push(tc.plan, b)
				if err != nil {
					t.Fatalf("%s %s binding %d: %v", name, tc.name, i, err)
				}
				ctx := algebra.NewContext()
				ctx.Catalog["records"] = records
				ctx.Params = b
				ctx.Funcs["contains"] = waiswrap.Contains
				ctx.Funcs["prefix"] = feed.Prefix
				want, err := exec.RunSerial(tc.plan, ctx)
				if err != nil {
					t.Fatalf("%s %s binding %d over the fetched records: %v", name, tc.name, i, err)
				}
				if !got.EqualUnordered(want) {
					t.Errorf("%s %s binding %d: push\n%s\nalgebra over the fetched records\n%s", name, tc.name, i, got, want)
				}
			}
		}
	}
}
