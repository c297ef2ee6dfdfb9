package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/filter"
	"repro/internal/tab"
	"repro/internal/wire"
)

const (
	feedLines   = 20000 // dump lines, 4% malformed
	feedLookups = 2000  // lookups per ingest
	// Of every five lookups four are equalities on a unique sealed index (id,
	// issn) and one is a title-prefix push returning about 107 rows. One in
	// five rather than one in ten keeps the 90th percentile inside the
	// prefix class instead of on the boundary between the two classes.
	feedPrefixEvery = 5
)

var feedIngestLookup = workload{
	name: "feed_ingest_lookup",
	why: "writes beside reads on one layer: each cycle ingests a 20,000-line dump into a fresh feed.Store, " +
		"then serves 2,000 indexed lookups over wire; no mediator planning, no O2, no Wais",
	clients: 1,
	warmOps: feedLookups,
	cycle:   feedLookups,
	setup:   setupFeed,
}

// lookup is one prebuilt-plan push with its parameter and expected rows.
type lookup struct {
	plan   algebra.Op
	param  tab.Cell
	prefix bool
	want   digest
}

// feedInst is feed_ingest_lookup set up. Every cycle replays the same
// seeded lookups against a freshly ingested store, so whole cycles have
// identical counts.
type feedInst struct {
	rec     *recorder
	corpus  *datagen.FeedCorpus
	dump    string
	lookups []lookup

	d   *deployment // the current cycle's wrapper server
	src algebra.Source
	// arrived is when the current cycle's dump arrived, until the cycle's
	// first lookup has answered: that lookup's first-row time is taken from
	// here, through ingest, serve and dial.
	arrived time.Time
	ingests []float64 // Store.Ingest wall time per cycle, seconds
	total   costs
	// retries and redials the cycles' wire clients needed, drained as each
	// client is closed.
	retries, redials int
	wrapper          *feed.Wrapper
}

func lookupPlan(filterSrc, pred string) algebra.Op {
	return &algebra.Select{
		From: &algebra.Bind{Doc: "records", F: filter.MustParse(filterSrc)},
		Pred: algebra.MustParseExpr(pred),
	}
}

func setupFeed(cfg config, rec *recorder) (instance, error) {
	fp := datagen.DefaultFeedParams(cfg.size(feedLines))
	fp.Seed = corpusSeed
	f := &feedInst{rec: rec, corpus: datagen.GenerateFeed(fp)}
	var sb strings.Builder
	if err := f.corpus.WriteNDXML(&sb); err != nil {
		return nil, err
	}
	f.dump = sb.String()

	byID := lookupPlan(`records[ *record[ id: $id, title: $t ] ]`, `$id = $k`)
	byISSN := lookupPlan(`records[ *record[ issn: $issn, title: $t ] ]`, `$issn = $k`)
	byPrefix := lookupPlan(`records[ *record[ id: $id, title: $t ] ]`, `prefix($t, $k)`)
	recs := f.corpus.Records
	rng := newRand(cfg.seed)
	for i := 0; i < cfg.size(feedLookups); i++ {
		r := recs[rng.intn(len(recs))]
		switch {
		case i%feedPrefixEvery == feedPrefixEvery-1:
			// "Painting 1dd" matches 1dd, 1dd0-1dd9 and 1dd00-1dd99: every
			// key selects the same number of dump lines.
			key := fmt.Sprintf("Painting 1%02d", rng.intn(100))
			var want digest
			for _, x := range recs {
				if strings.HasPrefix(x.Title, key) {
					want.add(x.ID + colSep + x.Title)
				}
			}
			f.lookups = append(f.lookups, lookup{plan: byPrefix, prefix: true, want: want,
				param: tab.AtomCell(data.String(key))})
		case i%2 == 0:
			f.lookups = append(f.lookups, lookup{plan: byID, param: tab.AtomCell(data.String(r.ID)),
				want: digestOf([]string{r.ID + colSep + r.Title})})
		default:
			f.lookups = append(f.lookups, lookup{plan: byISSN, param: tab.AtomCell(data.String(r.ISSN)),
				want: digestOf([]string{r.ISSN + colSep + r.Title})})
		}
	}
	return f, nil
}

// ingest builds a fresh store from the rendered dump and checks the ingest
// statistics against the generator's ground truth.
func (f *feedInst) ingest(dump string, valid int, malformed map[string]int) (*feed.Store, time.Duration, error) {
	store := feed.NewStore()
	start := time.Now()
	stats, err := store.Ingest(feed.NewNDXML(strings.NewReader(dump), "bench.ndxml"))
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	if stats.Ingested != valid {
		return nil, d, fmt.Errorf("ingested %d records, ground truth %d", stats.Ingested, valid)
	}
	for reason, n := range malformed {
		if stats.Reasons[reason] != n {
			return nil, d, fmt.Errorf("quarantined %d as %q, ground truth %d", stats.Reasons[reason], reason, n)
		}
	}
	if want := sumValues(malformed); stats.Quarantined != want {
		return nil, d, fmt.Errorf("quarantined %d records, ground truth %d", stats.Quarantined, want)
	}
	return store, d, nil
}

func sumValues(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// beginCycle is the write path: drop the previous store and its server,
// ingest the dump afresh, serve it over wire and dial it.
func (f *feedInst) beginCycle() error {
	f.close()
	f.arrived = time.Now()
	var sp *openSpan
	if f.rec != nil {
		sp = f.rec.begin(spanIngest, nil)
	}
	store, d, err := f.ingest(f.dump, len(f.corpus.Records), f.corpus.Malformed)
	if sp != nil {
		sp.end()
	}
	if err != nil {
		return err
	}
	f.ingests = append(f.ingests, d.Seconds())
	f.d = newDeployment(f.rec)
	f.wrapper = feed.New(srcFeed, store)
	addr, err := f.d.serve(feedExport(f.wrapper))
	if err != nil {
		return err
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	f.d.closers = append(f.d.closers, func() { c.Close() })
	f.src = c
	if f.rec != nil {
		f.src = decorate(c, f.rec, spanSource)
	}
	return nil
}

// op is the read path: one prebuilt-plan push over the wire. The reply
// carries every row at once, so a lookup has no first-row time of its own;
// the cycle's first lookup reports how long after the dump's arrival the
// store gave its first row.
func (f *feedInst) op(c, i int) sample {
	l := f.lookups[i%len(f.lookups)]
	start := time.Now()
	res, err := f.src.Push(l.plan, map[string]tab.Cell{"$k": l.param})
	out := sample{latency: time.Since(start)}
	if !f.arrived.IsZero() {
		if err == nil && res.Len() > 0 {
			out.firstRow = time.Since(f.arrived)
		}
		f.arrived = time.Time{}
	}
	if err != nil {
		out.failed = err.Error()
		return out
	}
	f.total.pushes++
	f.total.tuples += int64(res.Len())
	for _, r := range res.Rows {
		for _, cell := range r {
			f.total.bytes += int64(len(cell.Key())) // as algebra counts BytesShipped for pushed rows
		}
	}
	digestTab(&out.rows, res)
	if out.rows != l.want {
		out.failed = fmt.Sprintf("rows %v, oracle %v", out.rows, l.want)
	}
	return out
}

func (f *feedInst) costs() costs { return f.total }

// drainRetries folds the current wire client's retry counters into the
// instance's totals.
func (f *feedInst) drainRetries() {
	if rr, ok := f.src.(algebra.RetryReporter); ok {
		r, d := rr.TakeRetryStats()
		f.retries, f.redials = f.retries+r, f.redials+d
	}
}

func (f *feedInst) close() {
	if f.d != nil {
		f.drainRetries()
		f.d.close()
		f.d = nil
	}
}

func (f *feedInst) probe(pr *probes) { pr.feed(f) }
