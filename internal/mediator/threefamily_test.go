package mediator

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/filter"
	"repro/internal/o2wrap"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// Three-family deployment: the Figure 2 pair (O₂ + Wais) extended with the
// bulk-feed wrapper, all three behind real wire connections. The feed store
// ingests a generated dump, so the deployment exercises the whole ingest
// pipeline before the first query.

const threeFamilyN = 60

// deployThreeFamilies connects o2artifact, xmlartwork and bulkfeed to one
// mediator over TCP and returns a kill switch for the feed wrapper.
func deployThreeFamilies(t *testing.T, n int) (*Mediator, func()) {
	t.Helper()
	w := datagen.Generate(datagen.DefaultParams(n))
	ow := o2wrap.New("o2artifact", w.DB)
	schema := ow.ExportSchema()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	fw := feed.New("bulkfeed", datagen.NewFeedStore(datagen.GenerateFeed(datagen.DefaultFeedParams(n))))
	deploys := []wire.Exported{
		{Source: ow, Interface: ow.ExportInterface(),
			Structures: map[string]wire.StructureRef{
				"artifacts": {Model: schema, Pattern: "Artifact"},
				"persons":   {Model: schema, Pattern: "Person"},
			}},
		{Source: ww, Interface: ww.ExportInterface(),
			Structures: map[string]wire.StructureRef{
				"works": {Model: ww.ExportStructure(), Pattern: "Works"},
			}},
		{Source: fw, Interface: fw.ExportInterface(),
			Structures: map[string]wire.StructureRef{
				"records": {Model: fw.ExportStructure(), Pattern: "Records"},
			}},
	}
	m := New()
	var killFeed func()
	for i, exp := range deploys {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tl := &trackingListener{Listener: ln}
		if i == 2 {
			killFeed = tl.kill
		}
		srv := wire.Serve(tl, exp)
		c, err := wire.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		t.Cleanup(func() { c.Close() })
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
	m.RegisterFunc("prefix", feed.Prefix)
	return m, killFeed
}

// threeFamilyUnion builds one title branch per wrapper family; each branch
// survives alone, so killing one source must cost exactly its rows.
func threeFamilyUnion() algebra.Op {
	return &algebra.Union{
		L: &algebra.Union{
			L: &algebra.Bind{Doc: "artifacts",
				F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t ] ] ]`)},
			R: &algebra.Bind{Doc: "works",
				F: filter.MustParse(`works[ *work[ title: $t ] ]`)},
		},
		R: &algebra.Bind{Doc: "records",
			F: filter.MustParse(`records[ *record[ title: $t ] ]`)},
	}
}

func TestThreeFamilyAllowPartial(t *testing.T) {
	m, killFeed := deployThreeFamilies(t, threeFamilyN)
	full, err := m.ExecutePlan(context.Background(), threeFamilyUnion(), ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Tab.Len() == 0 || len(full.SourceErrors) != 0 {
		t.Fatalf("clean run: %d rows, errors %v", full.Tab.Len(), full.SourceErrors)
	}

	// The feed wrapper goes fully down: listener and live connections.
	killFeed()

	// Strict execution fails with the typed outage naming the feed source.
	_, err = m.ExecutePlan(context.Background(), threeFamilyUnion(), ExecOptions{Parallelism: 1})
	var ue *algebra.UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("strict execution with dead feed = %v, want UnavailableError", err)
	}
	if ue.Source != "bulkfeed" {
		t.Errorf("unavailable source = %q, want bulkfeed", ue.Source)
	}

	// AllowPartial keeps the O₂ and Wais rows and reports the feed outage.
	var serial *Result
	for _, par := range []int{1, 4} {
		partial, err := m.ExecutePlan(context.Background(), threeFamilyUnion(),
			ExecOptions{Parallelism: par, AllowPartial: true})
		if err != nil {
			t.Fatalf("AllowPartial par=%d: %v", par, err)
		}
		if partial.Tab.Len() == 0 || partial.Tab.Len() >= full.Tab.Len() {
			t.Fatalf("par=%d partial rows = %d, want strictly between 0 and %d",
				par, partial.Tab.Len(), full.Tab.Len())
		}
		if len(partial.SourceErrors) != 1 || partial.SourceErrors[0].Source != "bulkfeed" {
			t.Fatalf("par=%d SourceErrors = %v, want exactly bulkfeed", par, partial.SourceErrors)
		}
		if serial == nil {
			serial = partial
		} else if !partial.Tab.EqualUnordered(serial.Tab) {
			t.Errorf("parallel partial rows differ from serial:\n%s\nvs:\n%s", partial.Tab, serial.Tab)
		}
	}
}

func TestThreeFamilyAllowPartialStreaming(t *testing.T) {
	poolsIdle := leakCheck(t)
	m, killFeed := deployThreeFamilies(t, threeFamilyN)
	s, err := m.StreamPlan(context.Background(), threeFamilyUnion(), ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	fullTab, fullRes := drainStream(t, s)
	if fullTab.Len() == 0 || len(fullRes.SourceErrors) != 0 {
		t.Fatalf("clean stream: %d rows, errors %v", fullTab.Len(), fullRes.SourceErrors)
	}

	killFeed()

	// The streaming path degrades the same way as the materialized one: the
	// live sources' frames arrive, the outage lands in Result.SourceErrors.
	for _, par := range []int{1, 4} {
		s, err := m.StreamPlan(context.Background(), threeFamilyUnion(),
			ExecOptions{Parallelism: par, AllowPartial: true})
		if err != nil {
			t.Fatalf("AllowPartial stream par=%d: %v", par, err)
		}
		got, res := drainStream(t, s)
		if got.Len() == 0 || got.Len() >= fullTab.Len() {
			t.Fatalf("par=%d streamed partial rows = %d, want strictly between 0 and %d",
				par, got.Len(), fullTab.Len())
		}
		if len(res.SourceErrors) != 1 || res.SourceErrors[0].Source != "bulkfeed" {
			t.Fatalf("par=%d stream SourceErrors = %v, want exactly bulkfeed", par, res.SourceErrors)
		}
	}
	poolsIdle(m)
}

// TestFeedPushdownSplitsSupportedPredicates is the feed-family acceptance
// check: the equality on journal is within the published profile and must
// ship to the wrapper as a source query, while the ordering comparison on
// year is outside it (the feed declares no lt/gt) and must stay behind as a
// mediator-side Select over the pushed rows.
func TestFeedPushdownSplitsSupportedPredicates(t *testing.T) {
	m, _ := deployThreeFamilies(t, threeFamilyN)
	const src = `
MAKE result[ title: $t, year: $y ]
MATCH records WITH records[ *record[ title: $t, journal: $j, year: $y ] ]
WHERE $j = "Journal of Modern Art" AND $y > 1900
`
	naive, err := queryNaive(m, src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(naive.Tab)
	if len(want) == 0 {
		t.Fatal("naive run returned no rows; corpus too small for the check")
	}
	if got := renderRows(opt.Tab); !reflect.DeepEqual(got, want) {
		t.Fatalf("optimized rows differ: %v vs %v\n%s", got, want, opt.Plan)
	}
	if !strings.Contains(opt.Plan, "SourceQuery(bulkfeed)") {
		t.Errorf("journal equality not pushed to the feed wrapper:\n%s", opt.Plan)
	}
	// The unsupported ordering comparison survives as a mediator-side
	// Select above the source query.
	if !strings.Contains(opt.Plan, "Select($y > 1900)") {
		t.Errorf("year predicate must stay mediator-side:\n%s", opt.Plan)
	}
	if opt.Stats.SourcePushes == 0 {
		t.Errorf("stats = %+v, want at least one source push", opt.Stats)
	}
	if naive.Stats.SourceFetches == 0 {
		t.Errorf("naive stats = %+v, expected document fetches", naive.Stats)
	}
	if opt.Stats.SourceFetches >= naive.Stats.SourceFetches {
		t.Errorf("pushdown did not reduce fetches: opt=%d naive=%d",
			opt.Stats.SourceFetches, naive.Stats.SourceFetches)
	}
}

// The declared prefix operation pushes as an external call; rows must match
// the naive evaluation through the registered mediator function.
func TestFeedPushdownPrefixCall(t *testing.T) {
	m, _ := deployThreeFamilies(t, threeFamilyN)
	const src = `
MAKE result[ title: $t, journal: $j ]
MATCH records WITH records[ *record[ title: $t, journal: $j ] ]
WHERE prefix($j, "Journal of")
`
	naive, err := queryNaive(m, src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := m.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(naive.Tab)
	if len(want) == 0 {
		t.Fatal("naive prefix query returned no rows")
	}
	for _, r := range naive.Tab.Rows {
		if j := r[0].Tree.Child("journal"); j == nil || !strings.HasPrefix(j.Atom.S, "Journal of") {
			t.Fatalf("naive row outside the prefix: %s", r[0].Tree)
		}
	}
	if got := renderRows(opt.Tab); !reflect.DeepEqual(got, want) {
		t.Fatalf("optimized rows differ: %v vs %v\n%s", got, want, opt.Plan)
	}
	for _, frag := range []string{"SourceQuery(bulkfeed)", "prefix("} {
		if !strings.Contains(opt.Plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, opt.Plan)
		}
	}
	if opt.Stats.SourcePushes == 0 {
		t.Errorf("stats = %+v, want at least one source push", opt.Stats)
	}
}

// Sanity for the union fixture itself: the feed branch contributes rows
// through the wire Bind path (whole-document fetch plus mediator-side
// match), proving fetch interop independent of pushdown.
func TestThreeFamilyUnionFeedRows(t *testing.T) {
	m, killFeed := deployThreeFamilies(t, threeFamilyN)
	full, err := m.ExecutePlan(context.Background(), threeFamilyUnion(), ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	killFeed()
	partial, err := m.ExecutePlan(context.Background(), threeFamilyUnion(),
		ExecOptions{Parallelism: 1, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	feedRows := full.Tab.Len() - partial.Tab.Len()
	want := datagen.GenerateFeed(datagen.DefaultFeedParams(threeFamilyN))
	if feedRows != len(want.Records) {
		t.Errorf("feed branch contributed %d rows, want %d surviving records",
			feedRows, len(want.Records))
	}
}
