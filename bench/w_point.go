package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/frontdoor"
	"repro/internal/mediator"
)

const (
	pointClients = 2 // HTTP clients, one tenant each
	// The ten Q1 texts take about 20 ms and the ten Q2 texts 6 to 8 ms, with
	// nothing in between. Issued equally often, the median operation would
	// sit in the gap between the two classes and jump from one to the other
	// between runs; at 3:7 the median falls inside the Q2 class and the 90th
	// percentile inside the Q1 class, so each class is held by one of them.
	pointQ1Reps  = 6
	pointQ2Reps  = 14
	pointWarmOps = 10 * (pointQ1Reps + pointQ2Reps) // one balanced pass over the texts
)

var pointFrontdoor = workload{
	name: "point_frontdoor",
	why: "20 small query texts (Q1:Q2 issued 3:7) on 200 artifacts through the HTTP front door and a 2-replica route, " +
		"2 tenants: fixed per-query cost (NDJSON, compose+optimize+verify, round trips) dominates",
	clients: pointClients,
	warmOps: pointWarmOps,
	cycle:   1,
	setup:   setupPoint,
}

// pointInst is point_frontdoor set up: the trading sources behind a
// mediator behind a front door on a loopback HTTP listener, one kept-alive
// HTTP client per tenant.
type pointInst struct {
	d       *deployment
	door    *frontdoor.Door
	url     string
	queries []query
	bodies  [][]byte
	order   [][]int // per client: balanced seeded order over the query texts
	clients []*http.Client
	opts    mediator.ExecOptions
	sheds   atomic.Int64 // 429/503 responses, from any client
}

func setupPoint(cfg config, rec *recorder) (instance, error) {
	p := datagen.DefaultParams(200)
	p.Seed = corpusSeed
	w := datagen.Generate(p)
	d := newDeployment(rec)
	inst := &pointInst{d: d, opts: mediator.ExecOptions{Parallelism: 1}}
	if err := d.addTrading(w, 2); err != nil {
		d.close()
		return nil, err
	}
	var err error
	if inst.queries, err = pointQueries(w); err != nil {
		d.close()
		return nil, err
	}
	for _, q := range inst.queries {
		b, err := json.Marshal(frontdoor.QueryRequest{Query: q.text})
		if err != nil {
			d.close()
			return nil, err
		}
		inst.bodies = append(inst.bodies, b)
	}
	inst.door = frontdoor.New(d.med, frontdoor.Options{Exec: inst.opts})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	srv := &http.Server{Handler: inst.door.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			panic(err) // the listener is ours: only a bug can fail Serve
		}
	}()
	d.closers = append(d.closers, func() { srv.Close(); <-served })
	inst.url = "http://" + ln.Addr().String() + "/query"
	counts := make([]int, len(inst.queries))
	for i, q := range inst.queries {
		counts[i] = pointQ2Reps
		if q.q1 {
			counts[i] = pointQ1Reps
		}
	}
	for c := 0; c < pointClients; c++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		inst.clients = append(inst.clients, &http.Client{Transport: tr, Timeout: time.Minute})
		inst.order = append(inst.order, balancedOrder(counts, cfg.seed+int64(c)))
		d.closers = append(d.closers, tr.CloseIdleConnections)
	}
	return inst, nil
}

func (p *pointInst) query(c, i int) int { return p.order[c][i%len(p.order[c])] }

// ndLine is any line of the front door's NDJSON response.
type ndLine struct {
	Cols  []string `json:"cols"`
	Row   []string `json:"row"`
	Done  bool     `json:"done"`
	Rows  int      `json:"rows"`
	Error string   `json:"error"`
	Code  string   `json:"code"`
}

// op POSTs one query as tenant c and reads the response to its terminal
// line; the clock stops there and the rows are checked afterwards.
func (p *pointInst) op(c, i int) sample {
	qi := p.query(c, i)
	var out sample
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, p.url, bytes.NewReader(p.bodies[qi]))
	if err != nil {
		return failedSample("%v", err)
	}
	req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", c))
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.clients[c].Do(req)
	if err != nil {
		return failedSample("%v", err)
	}
	defer resp.Body.Close()
	var rows [][]string
	var last ndLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		last = ndLine{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return failedSample("bad NDJSON line %q", sc.Text())
		}
		if last.Row != nil {
			if out.firstRow == 0 {
				out.firstRow = time.Since(start)
			}
			rows = append(rows, last.Row)
		}
	}
	out.latency = time.Since(start)
	switch {
	case sc.Err() != nil:
		out.failed = sc.Err().Error()
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		p.sheds.Add(1)
		out.failed = "shed: " + last.Code
	case resp.StatusCode != http.StatusOK:
		out.failed = fmt.Sprintf("http %d: %s", resp.StatusCode, last.Error)
	case last.Error != "":
		out.failed = last.Code + ": " + last.Error
	case !last.Done:
		out.failed = "response ended without a terminal line"
	}
	if out.failed != "" {
		return out
	}
	for _, r := range rows {
		out.rows.add(strings.Join(r, colSep))
	}
	if want := p.queries[qi].want; out.rows != want {
		out.failed = fmt.Sprintf("rows %v, oracle %v", out.rows, want)
	}
	return out
}

func (p *pointInst) costs() costs { return p.d.costs() }
func (p *pointInst) close()       { p.d.close() }

// replay runs the text of traced operation i directly against the mediator,
// stage by stage: what the HTTP span exceeds it by is the front door's own.
func (p *pointInst) replay(i int) error {
	return replayStaged(p.d.med, p.d.rec, p.queries[p.query(0, i)], p.opts)
}

func (p *pointInst) probe(pr *probes) {
	pr.planning(p.d.med, p.queries)
	pr.admission(p.door)
	pr.xmlenc(p.d.works)
	pr.routes(p.d)
	pr.transport(p.d)
	pr.set("frontdoor.shed_count", float64(p.sheds.Load()))
}
