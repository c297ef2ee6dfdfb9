package main

import (
	"fmt"
	"net"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/mediator"
	"repro/internal/o2wrap"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// deployment is one mediator with its wrappers, all inside this process and
// all talking over loopback TCP through internal/wire — the Figure 2
// topology without process boundaries. With a recorder, every source handed
// to wire.Exported and to mediator.Connect is wrapped in a tap; without one
// the undecorated sources are connected and no bench code sits on the path.
type deployment struct {
	med *mediator.Mediator
	reg *obs.Registry // the mediator's own counters: pushes, fetches, tuples, bytes
	rec *recorder

	o2      *o2wrap.Wrapper
	works   data.Forest // the Wais source's corpus, for the codec probe
	routes  []*route.Replicated
	closers []func()
}

func newDeployment(rec *recorder) *deployment {
	d := &deployment{med: mediator.New(), reg: obs.NewRegistry(), rec: rec}
	// The verified configuration (yat-mediator -lint): planlint and typed
	// verification after every rewrite, and the lint gate before execution.
	d.med.CheckInvariants = true
	d.med.SetMetrics(d.reg)
	d.med.RegisterFunc("contains", waiswrap.Contains)
	d.med.RegisterFunc("prefix", feed.Prefix)
	return d
}

// close tears the deployment down in reverse order of construction.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// serve exports one wrapper on a fresh loopback port and returns its address.
func (d *deployment) serve(exp wire.Exported) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if d.rec != nil {
		exp.Source = decorate(exp.Source, d.rec, spanWrapper)
	}
	srv := wire.Serve(ln, exp)
	d.closers = append(d.closers, srv.Close)
	return srv.Addr(), nil
}

// connect dials the addresses (several = one logical source over replicas
// behind route.Replicated), imports the interface and the structures, and
// registers the source with the mediator.
func (d *deployment) connect(addrs ...string) error {
	clients := make([]algebra.Source, len(addrs))
	var first *wire.Client
	for i, addr := range addrs {
		c, err := wire.Dial(addr)
		if err != nil {
			return err
		}
		d.closers = append(d.closers, func() { c.Close() })
		clients[i] = c
		if i == 0 {
			first = c
		}
	}
	src := clients[0]
	if len(clients) > 1 {
		rt, err := route.New(first.Name(), clients, route.Options{})
		if err != nil {
			return err
		}
		d.routes = append(d.routes, rt)
		src = rt
	}
	if d.rec != nil {
		src = decorate(src, d.rec, spanSource)
	}
	iface, err := first.ImportInterface()
	if err != nil {
		return err
	}
	if err := d.med.Connect(src, iface); err != nil {
		return err
	}
	sts, err := first.ImportStructures()
	if err != nil {
		return err
	}
	for doc, ref := range sts {
		d.med.ImportStructure(doc, ref.Model, ref.Pattern)
	}
	return nil
}

// addTrading serves the O₂ trading database (on o2Replicas ports) and the
// Wais museum catalog of a generated workload, connects both and loads the
// view1.yat integration program.
func (d *deployment) addTrading(w *datagen.Workload, o2Replicas int) error {
	d.o2 = o2wrap.New(srcO2, w.DB)
	d.works = w.Works
	schema := d.o2.ExportSchema()
	o2exp := wire.Exported{Source: d.o2, Interface: d.o2.ExportInterface(),
		Structures: map[string]wire.StructureRef{
			"artifacts": {Model: schema, Pattern: "Artifact"},
			"persons":   {Model: schema, Pattern: "Person"},
		}}
	var o2addrs []string
	for i := 0; i < o2Replicas; i++ {
		addr, err := d.serve(o2exp)
		if err != nil {
			return err
		}
		o2addrs = append(o2addrs, addr)
	}
	if err := d.connect(o2addrs...); err != nil {
		return fmt.Errorf("%s: %w", srcO2, err)
	}
	ww := waiswrap.New(srcWais, datagen.NewWaisEngine(w.Works))
	addr, err := d.serve(wire.Exported{Source: ww, Interface: ww.ExportInterface(),
		Structures: map[string]wire.StructureRef{
			"works": {Model: ww.ExportStructure(), Pattern: "Works"},
		}})
	if err != nil {
		return err
	}
	if err := d.connect(addr); err != nil {
		return fmt.Errorf("%s: %w", srcWais, err)
	}
	return d.med.LoadProgram(datagen.View1Src)
}

// feedExport is what a bulk-feed wrapper serves over the wire.
func feedExport(fw *feed.Wrapper) wire.Exported {
	return wire.Exported{Source: fw, Interface: fw.ExportInterface(),
		Structures: map[string]wire.StructureRef{
			"records": {Model: fw.ExportStructure(), Pattern: "Records"},
		}}
}

// costs are the paper's §5.3 counters, cumulative since the deployment
// started, read from the mediator's own registry, and beside them the O₂
// engine's count of executed OQL queries (a batched push runs one per
// binding).
type costs struct{ pushes, fetches, tuples, bytes, o2Queries int64 }

// costs must only be called between operations: QueriesRun is guarded by a
// lock the engine keeps to itself.
func (d *deployment) costs() costs {
	c := costs{
		pushes:  d.reg.Counter("source_pushes_total").Value(),
		fetches: d.reg.Counter("source_fetches_total").Value(),
		tuples:  d.reg.Counter("tuples_shipped_total").Value(),
		bytes:   d.reg.Counter("bytes_shipped_total").Value(),
	}
	if d.o2 != nil {
		c.o2Queries = int64(d.o2.DB.QueriesRun)
	}
	return c
}

func (c costs) sub(o costs) costs {
	return costs{c.pushes - o.pushes, c.fetches - o.fetches, c.tuples - o.tuples, c.bytes - o.bytes, c.o2Queries - o.o2Queries}
}
