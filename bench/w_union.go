package main

import (
	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/filter"
	"repro/internal/mediator"
)

var union3Ship = workload{
	name: "union3_ship",
	why: "three whole-document fetches (~1.9 MB, 12,446 rows) per query, one from each wrapper family, 1 client: " +
		"xmlenc, wire framing and mediator-side Bind dominate; source engines only enumerate",
	clients: 1,
	warmOps: 16,
	cycle:   1,
	setup:   setupUnion,
}

// unionInst is union3_ship set up: all three wrapper families over loopback
// wire, library callers streaming the prebuilt three-branch title union.
type unionInst struct {
	d    *deployment
	plan algebra.Op
	want digest
	opts mediator.ExecOptions
}

// threeFamilyTitles is one title branch per wrapper family: no operation of
// it can be pushed as a whole, so each branch ships its document.
func threeFamilyTitles() algebra.Op {
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

func setupUnion(cfg config, rec *recorder) (instance, error) {
	p := datagen.DefaultParams(cfg.size(5000))
	p.Seed = corpusSeed
	w := datagen.Generate(p)
	fp := datagen.DefaultFeedParams(cfg.size(5000))
	fp.Seed = corpusSeed
	fc := datagen.GenerateFeed(fp)
	d := newDeployment(rec)
	if err := d.addTrading(w, 1); err != nil {
		d.close()
		return nil, err
	}
	addr, err := d.serve(feedExport(feed.New(srcFeed, datagen.NewFeedStore(fc))))
	if err == nil {
		err = d.connect(addr)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return &unionInst{d: d, plan: threeFamilyTitles(), want: unionTitles(w, fc),
		opts: mediator.ExecOptions{Parallelism: 1}}, nil
}

func (u *unionInst) op(c, i int) sample {
	return streamPlan(u.d.med, u.d.rec, u.plan, u.opts, u.want)
}
func (u *unionInst) costs() costs { return u.d.costs() }
func (u *unionInst) close()       { u.d.close() }

func (u *unionInst) probe(pr *probes) {
	pr.plan(u.d.med, u.plan)
	pr.xmlenc(u.d.works)
	pr.transport(u.d)
}
