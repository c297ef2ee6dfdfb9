// Wrap your own source: the paper's central claim is that the operational
// model wraps *any* source generically — full query languages (OQL),
// restricted engines (Wais), or, as here, a source you build yourself.
//
// This example wraps a tiny in-memory "auction ledger" — a flat table of
// (title, hammer price, sale year) rows with one capability: an equality
// lookup by title. It exports a structure, a capability interface
// admitting only that lookup, and a Push that serves it. The mediator then
// integrates the ledger with the cultural sources: a query joining the
// integrated artworks view with the ledger turns into a DJoin that calls
// the ledger once per artwork (information passing), without the ledger
// ever shipping its full table.
//
//	go run ./examples/wrap-your-own
package main

import (
	"fmt"
	"os"

	yat "repro"
	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/mediator"
	"repro/internal/pattern"
	"repro/internal/tab"
)

// Ledger is the source being wrapped: a flat auction-results table.
type Ledger struct {
	rows    []ledgerRow
	Lookups int // observability: how many point lookups the mediator pushed
}

type ledgerRow struct {
	title  string
	hammer float64
	year   int64
}

// --- the wrapper: algebra.Source plus capability/structure export ---

// Name implements algebra.Source.
func (l *Ledger) Name() string { return "auctionledger" }

// Documents implements algebra.Source.
func (l *Ledger) Documents() []string { return []string{"sales"} }

// Fetch ships the whole ledger as XML (the capability the optimizer tries
// to avoid using).
func (l *Ledger) Fetch(doc string) (data.Forest, error) {
	if doc != "sales" {
		return nil, fmt.Errorf("ledger: unknown document %q", doc)
	}
	return l.sales(func(ledgerRow) bool { return true }), nil
}

// sales is the sales document made of the ledger rows keep accepts.
func (l *Ledger) sales(keep func(ledgerRow) bool) data.Forest {
	root := data.Elem("sales")
	for _, r := range l.rows {
		if keep(r) {
			root.Add(data.Elem("sale",
				data.Text("title", r.title),
				data.FloatLeaf("hammer", r.hammer),
				data.IntLeaf("year", r.year),
			))
		}
	}
	return data.Forest{root}
}

// Push implements the single declared capability: equality selections over
// the sale bind, one of which fixes the title — a point lookup. Anything
// else is refused, exactly as the capability interface advertises. The
// lookup is all the ledger answers itself: it narrows the document to the
// sales of that title, and the algebra answers the plan over them, so the
// query's variable names, the filter's constants and the other equalities
// mean what they mean at the mediator.
func (l *Ledger) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	sel, ok := plan.(*algebra.Select)
	if !ok {
		return nil, fmt.Errorf("ledger: operator %T is beyond the declared capabilities", plan)
	}
	b, ok := sel.From.(*algebra.Bind)
	if !ok || b.Doc != "sales" || b.From != nil {
		return nil, fmt.Errorf("ledger: only selections over the sales bind are supported")
	}
	title, err := titleLookup(titleVar(b.F.Root), sel.Pred, params)
	if err != nil {
		return nil, err
	}
	l.Lookups++
	ctx := algebra.NewContext()
	ctx.Params = params
	ctx.Catalog["sales"] = l.sales(func(r ledgerRow) bool { return r.title == title })
	return exec.RunSerial(plan, ctx)
}

// titleVar returns the variable a sales filter binds to a sale's title, or
// "" when it binds none.
func titleVar(n *filter.FNode) string {
	for _, it := range n.Items {
		if it.F == nil {
			continue
		}
		if it.F.Label == "title" && len(it.F.Items) == 1 && it.F.Items[0].F != nil {
			return it.F.Items[0].F.Var
		}
		if v := titleVar(it.F); v != "" {
			return v
		}
	}
	return ""
}

// titleLookup checks that every conjunct is an equality and returns the
// title one of them fixes: the title variable against a string constant or
// a DJoin parameter.
func titleLookup(tv string, pred algebra.Expr, params map[string]tab.Cell) (string, error) {
	title, found := "", false
	for _, c := range algebra.SplitConj(pred) {
		cmp, ok := c.(algebra.Cmp)
		if !ok || cmp.Op != algebra.OpEq {
			return "", fmt.Errorf("ledger: only equality is supported, got %s", c)
		}
		for _, side := range [][2]algebra.Expr{{cmp.L, cmp.R}, {cmp.R, cmp.L}} {
			if v, ok := side[0].(algebra.Var); !ok || tv == "" || v.Name != tv {
				continue
			}
			var key tab.Cell
			switch g := side[1].(type) {
			case algebra.Const:
				key = tab.AtomCell(g.Atom)
			case algebra.Var:
				key = params[g.Name]
			}
			if a, ok := key.AsAtom(); ok && a.Kind == data.KindString {
				title, found = a.S, true
			}
		}
	}
	if !found {
		return "", fmt.Errorf("ledger: the lookup needs a title")
	}
	return title, nil
}

// ExportStructure describes the ledger's data shape (Figure 3 style).
func (l *Ledger) ExportStructure() *pattern.Model {
	return pattern.MustParseModel(`model auctionledger
Sales := sales[ *&Sale ]
Sale  := sale[ title: String, hammer: Float, year: Int ]`)
}

// ExportInterface declares the single capability: bind sales rows by the
// fixed attribute shape, select with equality only (Figure 6 style).
func (l *Ledger) ExportInterface() *capability.Interface {
	i := capability.NewInterface("auctionledger")
	fm := pattern.NewModel("ledgerfmodel")
	// An Fpattern is a pattern with bind/inst flags set.
	sale := pattern.Node("sale",
		pattern.Node("title", pattern.Str()),
		pattern.Node("hammer", pattern.Float()),
		pattern.Node("year", pattern.Int()))
	sale.Bind = pattern.BindNone
	sales := pattern.NodeItems("sales", pattern.Item{P: sale, Star: true, Inst: pattern.InstNone})
	sales.Bind = pattern.BindNone
	fm.Define("Fsales", sales)
	i.FModels = append(i.FModels, fm)
	i.Binds["sales"] = capability.BindCap{FModel: "ledgerfmodel", FPattern: "Fsales"}
	i.Operations = append(i.Operations,
		capability.Operation{Name: "bind", Kind: "algebra"},
		capability.Operation{Name: "select", Kind: "algebra"},
		capability.Operation{Name: "eq", Kind: "boolean"},
	)
	return i
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "wrap-your-own: %v\n", err)
		os.Exit(1)
	}
}

// connect builds the paper's cultural mediator and connects the ledger to it.
func connect(ledger *Ledger) (*mediator.Mediator, error) {
	med, _, _, err := yat.NewCulturalMediator(yat.PaperDB(), yat.PaperWorks())
	if err != nil {
		return nil, err
	}
	if err := med.Connect(ledger, ledger.ExportInterface()); err != nil {
		return nil, err
	}
	med.ImportStructure("sales", ledger.ExportStructure(), "Sales")
	return med, nil
}

func run() error {
	ledger := &Ledger{rows: []ledgerRow{
		{"Nympheas", 2100000, 1998},
		{"Waterloo Bridge", 410000, 1997},
		{"Dancers", 65000, 1999},
	}}
	med, err := connect(ledger)
	if err != nil {
		return err
	}

	fmt.Println("== The ledger's capability interface (what the mediator imported) ==")
	fmt.Println(capability.Marshal(ledger.ExportInterface()))

	fmt.Println("== Integrated query: artworks with their auction results ==")
	q := `MAKE result[ title: $t, year: $y, hammer: $hammer ]
MATCH artworks WITH doc[ *work[ title: $t, year: $y ] ],
      sales WITH sales[ *sale[ title: $lt, hammer: $hammer ] ]
WHERE $t = $lt`
	res, err := med.Query(q)
	if err != nil {
		return err
	}
	fmt.Println("optimized plan:")
	fmt.Print(res.Plan)
	fmt.Println("answer:")
	fmt.Print(res.Tab)
	fmt.Printf("\nledger point lookups served: %d (never shipped its table: %d fetches)\n",
		ledger.Lookups, res.Stats.SourceFetches)

	// The declared capability is the contract: unsupported pushes fail loudly.
	_, err = ledger.Push(&algebra.Bind{Doc: "sales",
		F: filter.MustParse(`sales[ *sale[ hammer: $h ] ]`)}, nil)
	fmt.Printf("\npushing beyond the declared capability: %v\n", err)
	return nil
}
