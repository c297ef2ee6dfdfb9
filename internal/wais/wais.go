// Package wais is the full-text substrate of the reproduction, standing in
// for the free WAIS-sf engine (Z39.50) wrapped in Section 4.2. It stores
// XML documents, maintains an inverted index of their text (globally and
// per field), answers `contains` and attribute/value queries with sorted
// posting-list merges, and honours the Z39.50 separation between what may
// be queried and what may be retrieved (the queryable/retrievable field
// configuration of a Wais source description such as museum.src).
package wais

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/data"
)

// Engine is an in-memory Wais-like full-text retrieval engine.
type Engine struct {
	Name string
	docs []*data.Node
	// index maps a term to the sorted list of documents containing it.
	index map[string][]int
	// fieldIndex maps field -> term -> sorted document list; the field of a
	// token is the label of its innermost enclosing element.
	fieldIndex map[string]map[string][]int
	// queryable restricts which fields may appear in queries (nil: all);
	// retrievable restricts which fields are exported (nil: all).
	queryable   map[string]bool
	retrievable map[string]bool
	// SearchesRun counts executed searches (observability for experiments).
	// Guarded by statsMu: a parallel mediator runs searches concurrently.
	SearchesRun int
	statsMu     sync.Mutex
}

// countSearch bumps the search counter under its lock.
func (e *Engine) countSearch() {
	e.statsMu.Lock()
	e.SearchesRun++
	e.statsMu.Unlock()
}

// New returns an empty engine.
func New(name string) *Engine {
	return &Engine{
		Name:       name,
		index:      map[string][]int{},
		fieldIndex: map[string]map[string][]int{},
	}
}

// Config is a Wais source configuration (museum.src): the source name and
// the queryable/retrievable field lists. Empty lists mean "all fields".
type Config struct {
	Name        string
	Queryable   []string
	Retrievable []string
}

// ParseConfig parses the line-based source configuration format:
//
//	source museum
//	queryable style cplace history technique
//	retrievable artist title style size
//
// Lines starting with '#' are comments.
func ParseConfig(src string) (*Config, error) {
	c := &Config{}
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "source":
			if len(fields) != 2 {
				return nil, fmt.Errorf("wais: line %d: source expects one name", ln+1)
			}
			c.Name = fields[1]
		case "queryable":
			c.Queryable = append(c.Queryable, fields[1:]...)
		case "retrievable":
			c.Retrievable = append(c.Retrievable, fields[1:]...)
		default:
			return nil, fmt.Errorf("wais: line %d: unknown directive %q", ln+1, fields[0])
		}
	}
	if c.Name == "" {
		return nil, fmt.Errorf("wais: configuration lacks a source name")
	}
	return c, nil
}

// Configure applies a source configuration to the engine.
func (e *Engine) Configure(c *Config) {
	e.Name = c.Name
	if len(c.Queryable) > 0 {
		e.queryable = map[string]bool{}
		for _, f := range c.Queryable {
			e.queryable[f] = true
		}
	}
	if len(c.Retrievable) > 0 {
		e.retrievable = map[string]bool{}
		for _, f := range c.Retrievable {
			e.retrievable[f] = true
		}
	}
}

// Queryable reports whether a field may be queried.
func (e *Engine) Queryable(field string) bool {
	return e.queryable == nil || e.queryable[field]
}

// Retrievable reports whether a field is exported on retrieval.
func (e *Engine) Retrievable(field string) bool {
	return e.retrievable == nil || e.retrievable[field]
}

// Tokenize lowercases and splits text on non-alphanumeric characters.
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// Add indexes a document and returns its document number.
func (e *Engine) Add(doc *data.Node) int {
	id := len(e.docs)
	e.docs = append(e.docs, doc)
	var walk func(n *data.Node, field string)
	walk = func(n *data.Node, field string) {
		if n.Label != "" {
			field = n.Label
		}
		if n.Atom != nil {
			for _, term := range Tokenize(n.Atom.Text()) {
				e.post(term, id)
				e.postField(field, term, id)
			}
			return
		}
		for _, k := range n.Kids {
			walk(k, field)
		}
	}
	walk(doc, "")
	return id
}

func (e *Engine) post(term string, id int) {
	l := e.index[term]
	if len(l) == 0 || l[len(l)-1] != id {
		e.index[term] = append(l, id)
	}
}

func (e *Engine) postField(field, term string, id int) {
	m := e.fieldIndex[field]
	if m == nil {
		m = map[string][]int{}
		e.fieldIndex[field] = m
	}
	l := m[term]
	if len(l) == 0 || l[len(l)-1] != id {
		m[term] = append(l, id)
	}
}

// Size reports the number of indexed documents.
func (e *Engine) Size() int { return len(e.docs) }

// Doc returns the raw stored document.
func (e *Engine) Doc(id int) *data.Node {
	if id < 0 || id >= len(e.docs) {
		return nil
	}
	return e.docs[id]
}

// Retrieve returns the exportable view of a document: a copy restricted to
// retrievable fields (Z39.50 lets a source export less than it stores),
// built in one data.Block of its own.
func (e *Engine) Retrieve(id int) *data.Node {
	nodes, atoms := e.RetrieveSize(id)
	if nodes == 0 {
		return nil
	}
	b := data.NewBlock(nodes, atoms, nodes-1)
	return e.RetrieveInto(&b, id)
}

// RetrieveSize counts the nodes and atoms of Retrieve's view of a document,
// (0, 0) when there is no such document.
func (e *Engine) RetrieveSize(id int) (nodes, atoms int) {
	doc := e.Doc(id)
	if doc == nil {
		return 0, 0
	}
	count := func(m *data.Node) bool {
		nodes++
		if m.Atom != nil {
			atoms++
		}
		return true
	}
	if e.retrievable == nil {
		doc.Walk(count)
		return nodes, atoms
	}
	nodes = 1
	for _, k := range doc.Kids {
		if e.retrievable[k.Label] {
			k.Walk(count)
		}
	}
	return nodes, atoms
}

// RetrieveInto builds Retrieve's view of a document in b, so that a caller
// retrieving many documents builds them all in one block, sized by summing
// RetrieveSize.
func (e *Engine) RetrieveInto(b *data.Block, id int) *data.Node {
	doc := e.Doc(id)
	if doc == nil {
		return nil
	}
	if e.retrievable == nil {
		return b.Clone(doc)
	}
	fields := 0
	for _, k := range doc.Kids {
		if e.retrievable[k.Label] {
			fields++
		}
	}
	out := b.Elem(doc.Label)
	out.ID = doc.ID
	out.Kids = b.List(fields)
	i := 0
	for _, k := range doc.Kids {
		if e.retrievable[k.Label] {
			out.Kids[i] = b.Clone(k)
			i++
		}
	}
	return out
}

// Search returns the documents containing every word of text (conjunctive
// full-text search), sorted by document number. It implements the contains
// predicate of Section 4.2.
func (e *Engine) Search(text string) []int {
	e.countSearch()
	terms := Tokenize(text)
	if len(terms) == 0 {
		return nil
	}
	res := e.index[terms[0]]
	for _, t := range terms[1:] {
		res = intersect(res, e.index[t])
	}
	return append([]int(nil), res...)
}

// SearchField returns the documents whose field contains every word of
// text — the attribute/value textual query of Z39.50. Querying a
// non-queryable field is an error, mirroring the protocol's separation
// between retrievable and queryable information.
func (e *Engine) SearchField(field, text string) ([]int, error) {
	if !e.Queryable(field) {
		return nil, fmt.Errorf("wais: field %q is not queryable", field)
	}
	e.countSearch()
	m := e.fieldIndex[field]
	terms := Tokenize(text)
	if len(terms) == 0 || m == nil {
		return nil, nil
	}
	res := m[terms[0]]
	for _, t := range terms[1:] {
		res = intersect(res, m[t])
	}
	return append([]int(nil), res...), nil
}

// Contains reports whether one document's text contains every word of text.
func (e *Engine) Contains(id int, text string) bool {
	for _, t := range Tokenize(text) {
		if !member(e.index[t], id) {
			return false
		}
	}
	return true
}

// And intersects two document lists.
func And(a, b []int) []int { return intersect(a, b) }

// Or merges two document lists.
func Or(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = appendUnique(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = appendUnique(out, b[j])
			j++
		default:
			out = appendUnique(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Not returns the documents of the engine not present in a.
func (e *Engine) Not(a []int) []int {
	var out []int
	for id := range e.docs {
		if !member(a, id) {
			out = append(out, id)
		}
	}
	return out
}

func appendUnique(out []int, v int) []int {
	if len(out) == 0 || out[len(out)-1] != v {
		out = append(out, v)
	}
	return out
}

func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func member(l []int, id int) bool {
	i := sort.SearchInts(l, id)
	return i < len(l) && l[i] == id
}

// Terms returns the number of distinct indexed terms (diagnostics).
func (e *Engine) Terms() int { return len(e.index) }
