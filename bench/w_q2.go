package main

import (
	"repro/internal/datagen"
	"repro/internal/mediator"
)

var q2DJoin = workload{
	name: "q2_djoin",
	why: "the paper's Fig. 9 query on 3000 artifacts, one client, intra-query parallelism 2: " +
		"the O2/OQL engine, o2wrap translation and batched DJoin pushes dominate; planning is under 2%",
	clients: 1,
	warmOps: 12,
	cycle:   1,
	setup:   setupQ2,
}

// q2Inst is q2_djoin set up: both trading wrappers over loopback wire, no
// front door and no replica route, a library caller streaming Q2.
type q2Inst struct {
	d    *deployment
	q    query
	opts mediator.ExecOptions
}

func setupQ2(cfg config, rec *recorder) (instance, error) {
	p := datagen.DefaultParams(cfg.size(3000))
	p.Seed = corpusSeed
	w := datagen.Generate(p)
	d := newDeployment(rec)
	if err := d.addTrading(w, 1); err != nil {
		d.close()
		return nil, err
	}
	answer := q2Match(artworks(w), "Impressionist")
	if err := checkOracle("Q2", answer, w.Q2Titles); err != nil {
		d.close()
		return nil, err
	}
	return &q2Inst{d: d, opts: mediator.ExecOptions{Parallelism: 2},
		q: query{text: datagen.Q2Src, yatl: true, want: digestOf(q2Rows(answer))}}, nil
}

func (q *q2Inst) op(c, i int) sample { return streamText(q.d.med, q.q.text, q.opts, q.q.want) }
func (q *q2Inst) costs() costs       { return q.d.costs() }
func (q *q2Inst) close()             { q.d.close() }

func (q *q2Inst) replay(i int) error { return replayStaged(q.d.med, q.d.rec, q.q, q.opts) }

func (q *q2Inst) probe(pr *probes) {
	pr.planning(q.d.med, []query{q.q})
	pr.xmlenc(q.d.works)
	pr.transport(q.d)
}
