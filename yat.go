// Package yat is the public API of this reproduction of "On Wrapping Query
// Languages and Efficient XML Integration" (Christophides, Cluet, Siméon;
// SIGMOD 2000): the YAT XML integration system — an XML algebra with Bind
// and Tree operators over ¬1NF Tab structures, the YAT_L integration
// language, a capability-description language for wrapping query languages
// (OQL, Wais full-text), and a three-round rewriting optimizer performing
// composition elimination, capability-based pushdown and information
// passing.
//
// Quick start (the paper's Section 2 application):
//
//	db := yat.PaperDB()                     // the O₂ trading database
//	works := yat.PaperWorks()               // the XML-Wais artworks
//	med, _ := yat.NewCulturalMediator(db, works)
//	res, _ := med.Query(yat.Q1)             // artifacts created at Giverny
//	fmt.Println(res.Tab)
//
// The deeper layers are importable individually: repro/internal/algebra
// (operators and plans), repro/internal/yatl (the language),
// repro/internal/capability (source descriptions), repro/internal/o2 and
// repro/internal/wais (the wrapped substrates), repro/internal/wire (the
// TCP deployment of Figure 2).
package yat

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/filter"
	"repro/internal/mediator"
	"repro/internal/o2"
	"repro/internal/o2wrap"
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/tab"
	"repro/internal/wais"
	"repro/internal/waiswrap"
	"repro/internal/xmlenc"
	"repro/internal/yatl"
)

// Re-exported core types, so applications can hold values from the public
// API without importing internal packages directly.
type (
	// Node is a YAT data tree (an XML element, leaf or reference).
	Node = data.Node
	// Forest is an ordered sequence of trees.
	Forest = data.Forest
	// Tab is the ¬1NF relation of the algebra.
	Tab = tab.Tab
	// Op is an algebraic plan node.
	Op = algebra.Op
	// Mediator coordinates wrapped sources, views and query evaluation.
	Mediator = mediator.Mediator
	// Result bundles a query's rows, plans and execution counters.
	Result = mediator.Result
	// Interface is a source capability description (Figure 6).
	Interface = capability.Interface
	// Model is a set of named structural patterns (Figure 3).
	Model = pattern.Model
	// Program is a parsed YAT_L integration program.
	Program = yatl.Program
	// O2DB is the in-memory ODMG database substrate.
	O2DB = o2.DB
	// WaisEngine is the full-text retrieval substrate.
	WaisEngine = wais.Engine
	// O2Wrapper wraps an O₂ database as a YAT source.
	O2Wrapper = o2wrap.Wrapper
	// WaisWrapper wraps a Wais engine as a YAT source.
	WaisWrapper = waiswrap.Wrapper
)

// The paper's programs and queries.
const (
	// View1 is the integration program view1.yat of Section 2.
	View1 = datagen.View1Src
	// Q1 asks for the artifacts created at "Giverny" (Section 2).
	Q1 = datagen.Q1Src
	// Q2 asks for impressionist artworks sold under 200,000 (Section 5.3).
	Q2 = datagen.Q2Src
)

// PaperDB builds the trading database of the running example (Figure 1).
func PaperDB() *o2.DB { return datagen.PaperDB() }

// PaperWorks builds the XML works of Figure 1.
func PaperWorks() data.Forest { return datagen.PaperWorks() }

// GenerateWorkload builds a deterministic scaled workload with n artifacts
// (see repro/internal/datagen for full parameter control).
func GenerateWorkload(n int) (*o2.DB, data.Forest) {
	w := datagen.Generate(datagen.DefaultParams(n))
	return w.DB, w.Works
}

// NewMediator returns an empty mediator.
func NewMediator() *mediator.Mediator { return mediator.New() }

// NewO2Wrapper wraps an O₂ database under a source name.
func NewO2Wrapper(name string, db *o2.DB) *o2wrap.Wrapper { return o2wrap.New(name, db) }

// NewWaisWrapper indexes a forest of XML documents under the museum
// configuration and wraps the engine under a source name.
func NewWaisWrapper(name string, docs data.Forest) *waiswrap.Wrapper {
	return waiswrap.New(name, datagen.NewWaisEngine(docs))
}

// NewCulturalMediator assembles the complete Section 2 application: the O₂
// wrapper over db, the XML-Wais wrapper over works, both connected (each
// capability interface carries the structures of its documents, which
// Connect imports), view1 loaded, and the Figure 8
// containment assumptions declared. It returns the mediator together with
// the two wrappers (whose LastOQL / LastSearch fields expose what was
// pushed to each source).
func NewCulturalMediator(db *o2.DB, works data.Forest) (*mediator.Mediator, *o2wrap.Wrapper, *waiswrap.Wrapper, error) {
	ow := o2wrap.New("o2artifact", db)
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(works))
	m := mediator.New()
	if err := m.Connect(ow, ow.ExportInterface()); err != nil {
		return nil, nil, nil, err
	}
	if err := m.Connect(ww, ww.ExportInterface()); err != nil {
		return nil, nil, nil, err
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	for name, fn := range ow.Funcs() {
		m.RegisterFunc(name, fn)
	}
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		return nil, nil, nil, err
	}
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	return m, ow, ww, nil
}

// QueryNaive executes a query without optimization — the view is materialized
// and the query evaluated on the result, the naive strategy of Section 5.2 —
// as the baseline examples and benchmarks compare Mediator.Query against.
func QueryNaive(m *mediator.Mediator, query string) (*mediator.Result, error) {
	plan, err := m.Compose(query)
	if err != nil {
		return nil, err
	}
	return m.ExecutePlan(context.Background(), plan, mediator.ExecOptions{Parallelism: 1})
}

// ParseXML parses an XML document into a YAT tree.
func ParseXML(src string) (*data.Node, error) { return xmlenc.Parse(src) }

// SerializeXML renders a YAT tree as indented XML.
func SerializeXML(n *data.Node) string { return xmlenc.SerializeIndent(n) }

// ParseProgram parses a YAT_L integration program.
func ParseProgram(src string) (*yatl.Program, error) { return yatl.Parse(src) }

// ParseFilter parses a filter in the textual syntax.
func ParseFilter(src string) (*filter.Filter, error) { return filter.Parse(src) }

// DescribePlan renders an algebraic plan as an indented operator tree.
func DescribePlan(op algebra.Op) string { return algebra.Describe(op) }

// Optimize rewrites a plan with a standalone optimizer configured from the
// given interfaces and document-source map, running all three rounds (most
// callers should use Mediator.Query, which wires this automatically). No
// invariant is checked, so the plan is the only result.
func Optimize(plan algebra.Op, ifaces map[string]*capability.Interface, sourceDocs map[string]string) algebra.Op {
	out, _ := optimizer.New(optimizer.Options{Interfaces: ifaces, SourceDocs: sourceDocs}).Optimize(plan)
	return out
}
