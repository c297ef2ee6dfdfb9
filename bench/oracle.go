package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/tab"
)

// Expected answers are computed here from the generator's ground truth (the
// works forest, the trading database's objects, the feed records) and never
// from anything the mediator returns. A row is compared in the rendering the
// front door puts on the wire — Cell.String() per column — so the HTTP and
// the library workloads share one check.

// digest is an order-independent fingerprint of a bag of rows: the count
// and the wrapping sum of the rows' FNV-1a hashes.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(row string) {
	h := fnv.New64a()
	h.Write([]byte(row))
	d.n++
	d.sum += h.Sum64()
}

func (d *digest) merge(o digest) { d.n += o.n; d.sum += o.sum }

func (d digest) String() string { return fmt.Sprintf("%d:%016x", d.n, d.sum) }

const colSep = "\x1f"

// renderRow is the canonical text of a result row.
func renderRow(r tab.Row) string {
	if len(r) == 1 {
		return r[0].String()
	}
	parts := make([]string, len(r))
	for i, c := range r {
		parts[i] = c.String()
	}
	return strings.Join(parts, colSep)
}

func digestTab(d *digest, t *tab.Tab) {
	for _, r := range t.Rows {
		d.add(renderRow(r))
	}
}

func digestOf(rows []string) digest {
	var d digest
	for _, r := range rows {
		d.add(r)
	}
	return d
}

// artwork is one row of the artworks view as view1.yat defines it: a museum
// work joined with the trading artifact of the same title and creator, kept
// when the artifact is dated after 1800.
type artwork struct {
	title, style, cplace string
	price                float64
}

// artworks evaluates the view's join over the ground truth.
func artworks(w *datagen.Workload) []artwork {
	type artifact struct {
		creator string
		year    int64
		price   float64
	}
	byTitle := map[string][]artifact{}
	for _, oid := range w.DB.Extents["artifacts"] {
		f := w.DB.Get(oid).Value.Fields
		t := f["title"].S
		byTitle[t] = append(byTitle[t], artifact{f["creator"].S, f["year"].I, f["price"].AsFloat()})
	}
	var out []artwork
	for _, work := range w.Works {
		title, artist := leafText(work, "title"), leafText(work, "artist")
		for _, a := range byTitle[title] {
			if a.year > 1800 && a.creator == artist {
				out = append(out, artwork{title: title, style: leafText(work, "style"),
					cplace: leafText(work, "cplace"), price: a.price})
			}
		}
	}
	return out
}

func leafText(n *data.Node, label string) string {
	if c := n.Child(label); c != nil && c.Atom != nil {
		return c.Atom.Text()
	}
	return ""
}

// q1Match is the answer set of Q1 with the given place literal; q2Match that
// of Q2 with the given style literal.
func q1Match(aw []artwork, place string) []artwork {
	var out []artwork
	for _, a := range aw {
		if a.cplace == place {
			out = append(out, a)
		}
	}
	return out
}

func q2Match(aw []artwork, style string) []artwork {
	var out []artwork
	for _, a := range aw {
		if a.style == style && a.price < 200000 {
			out = append(out, a)
		}
	}
	return out
}

// q1Rows renders a Q1 answer: MAKE $t yields one unlabelled title leaf per
// artwork. q2Rows renders a Q2 answer: one result[title, price] tree each.
func q1Rows(aw []artwork) []string {
	out := make([]string, len(aw))
	for i, a := range aw {
		out[i] = data.Text("", a.title).String()
	}
	return out
}

func q2Rows(aw []artwork) []string {
	out := make([]string, len(aw))
	for i, a := range aw {
		out[i] = data.Elem("result", data.Text("title", a.title), data.FloatLeaf("price", a.price)).String()
	}
	return out
}

// checkOracle holds the oracle itself to the answers the generator recorded
// for the paper's literals (Workload.GivernyTitles, Workload.Q2Titles).
func checkOracle(name string, got []artwork, titles []string) error {
	g := make([]string, len(got))
	for i, a := range got {
		g[i] = a.title
	}
	if digestOf(g) != digestOf(titles) {
		return fmt.Errorf("oracle: %s over the ground truth gives %d titles, datagen recorded %d (or different ones)", name, len(g), len(titles))
	}
	return nil
}

// Query texts. The literal is spliced into the paper's Q1/Q2 in both
// dialects; with "Giverny" and "Impressionist" they are datagen's own
// Q1Src/Q2Src/Q1XQuerySrc/Q2XQuerySrc.
func q1Text(place string, xquery bool) string {
	if xquery {
		return strings.Replace(datagen.Q1XQuerySrc, `"Giverny"`, `"`+place+`"`, 1)
	}
	return strings.Replace(datagen.Q1Src, `"Giverny"`, `"`+place+`"`, 1)
}

func q2Text(style string, xquery bool) string {
	if xquery {
		return strings.Replace(datagen.Q2XQuerySrc, `"Impressionist"`, `"`+style+`"`, 1)
	}
	return strings.Replace(datagen.Q2Src, `"Impressionist"`, `"`+style+`"`, 1)
}

// The literal domains of datagen's generator (its places and styles slices
// are unexported).
var (
	places = []string{"Giverny", "Paris", "Argenteuil", "London", "Vetheuil"}
	styles = []string{"Impressionist", "Realist", "Cubist", "Baroque", "Romantic"}
)

// query is one query text with its expected answer.
type query struct {
	text string
	yatl bool // YAT_L rather than XQuery
	q1   bool // a Q1 text rather than a Q2 text
	want digest
}

// pointQueries builds the 20 texts of point_frontdoor — Q1 over the five
// places and Q2 over the five styles, each in YAT_L and in XQuery — with
// their oracles, and checks the oracle itself against the generator's
// recorded answers for the paper's literals.
func pointQueries(w *datagen.Workload) ([]query, error) {
	aw := artworks(w)
	if err := checkOracle("Q1", q1Match(aw, "Giverny"), w.GivernyTitles); err != nil {
		return nil, err
	}
	if err := checkOracle("Q2", q2Match(aw, "Impressionist"), w.Q2Titles); err != nil {
		return nil, err
	}
	var out []query
	for _, xq := range []bool{false, true} {
		for _, p := range places {
			out = append(out, query{text: q1Text(p, xq), yatl: !xq, q1: true, want: digestOf(q1Rows(q1Match(aw, p)))})
		}
		for _, s := range styles {
			out = append(out, query{text: q2Text(s, xq), yatl: !xq, want: digestOf(q2Rows(q2Match(aw, s)))})
		}
	}
	return out, nil
}

// unionTitles is the answer to the three-family title union: every
// artifact's, every work's and every surviving feed record's title, as a bag.
func unionTitles(w *datagen.Workload, fc *datagen.FeedCorpus) digest {
	var d digest
	for _, oid := range w.DB.Extents["artifacts"] {
		d.add(w.DB.Get(oid).Value.Fields["title"].S)
	}
	for _, work := range w.Works {
		d.add(leafText(work, "title"))
	}
	for _, r := range fc.Records {
		d.add(r.Title)
	}
	return d
}
