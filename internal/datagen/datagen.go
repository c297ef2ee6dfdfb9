// Package datagen builds the cultural-goods workloads of the paper: the
// exact fixtures of Figures 1-3 (three artifacts, two persons, works with
// optional cplace/history fields) and deterministic scaled generators with
// controlled cardinalities, selectivities and source overlap, used by the
// integration tests, the examples and every experiment of EXPERIMENTS.md.
//
// The generators substitute for the paper's unavailable data (christies.com
// trading data, Aquarelle museum corpora): the experiments only depend on
// controlled sizes and selectivities, which these generators provide.
package datagen

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/o2"
	"repro/internal/wais"
)

// View1Src is the integration program view1.yat of Section 2, in this
// reproduction's YAT_L concrete syntax.
const View1Src = `
# view1.yat — cultural goods integration (Section 2)
artworks() :=
MAKE doc[ *artwork($t, $c) := work[ title: $t, artist: $a, year: $y, price: $p,
          style: $s, size: $si, owners[ *owner: $o ], more: $fields ] ]
MATCH artifacts WITH set[ *class[ artifact.tuple[ title: $t, year: $y, creator: $c, price: $p,
          owners.list[ *class[ person.tuple[ name: $o, auction: $au ] ] ] ] ] ],
      works WITH works[ *work[ artist: $a, title: $t', style: $s, size: $si, *($fields) ] ]
WHERE $y > 1800 AND $c = $a AND $t = $t' ;
`

// Q1Src is query Q1 (Section 2): what are the artifacts created at
// "Giverny"?
const Q1Src = `
MAKE $t
MATCH artworks WITH doc[ *work[ title: $t, more.cplace: $cl ] ]
WHERE $cl = "Giverny"
`

// Q2Src is query Q2 (Section 5.3): which impressionist artworks are sold
// for less than 200,000?
const Q2Src = `
MAKE result[ title: $t, price: $p ]
MATCH artworks WITH doc[ *work[ title: $t, style: $s, price: $p ] ]
WHERE $s = "Impressionist" AND $p < 200000
`

// Q1XQuerySrc is Q1 in the XQuery-FLWR dialect of internal/xq; it compiles
// to the same algebra as Q1Src and must return byte-identical rows.
const Q1XQuerySrc = `for $w in doc("artworks")/doc/work
where $w/more/cplace = "Giverny"
return $w/title`

// Q2XQuerySrc is Q2 in the XQuery-FLWR dialect; the element constructor
// mirrors Q2Src's MAKE pattern.
const Q2XQuerySrc = `for $w in doc("artworks")/doc/work
where $w/style = "Impressionist" and $w/price < 200000
return <result><title>{$w/title}</title><price>{$w/price}</price></result>`

// MuseumSrc is the Wais source configuration of Figure 2 (museum.src).
const MuseumSrc = `
source museum
queryable artist title style size cplace history technique
retrievable artist title style size cplace history technique
`

// Artist/style/place domains for generated data.
var (
	artists = []string{"Claude Monet", "Edgar Degas", "Berthe Morisot",
		"Camille Pissarro", "Auguste Renoir", "Paul Cezanne", "Mary Cassatt",
		"Alfred Sisley", "Gustave Caillebotte", "Eva Gonzales"}
	styles = []string{"Impressionist", "Realist", "Cubist", "Baroque", "Romantic"}
	places = []string{"Giverny", "Paris", "Argenteuil", "London", "Vetheuil"}
)

// rng is a small deterministic generator (SplitMix-style) so that fixtures
// are reproducible without math/rand.
type rng struct{ s uint64 }

func newRng(seed int64) *rng { return &rng{s: uint64(seed)*2862933555777941757 + 3037000493} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pct(p int) bool { return r.intn(100) < p }

// The field names of the two classes' values, one list shared by all their
// objects.
var (
	personFields   = []string{"name", "auction"}
	artifactFields = []string{"title", "year", "creator", "price", "owners"}
)

// NewTradingSchema declares the Person/Artifact schema of the paper with
// the current_price method (a 10% premium over the recorded price).
func NewTradingSchema() *o2.Schema {
	s := o2.NewSchema()
	s.AddClass("Person", o2.TyTuple(
		o2.F("name", o2.TyStr()),
		o2.F("auction", o2.TyFloat()),
	), "persons")
	s.AddClass("Artifact", o2.TyTuple(
		o2.F("title", o2.TyStr()),
		o2.F("year", o2.TyInt()),
		o2.F("creator", o2.TyStr()),
		o2.F("price", o2.TyFloat()),
		o2.F("owners", o2.TyColl(o2.CList, o2.TyClass("Person"))),
	), "artifacts")
	_ = s.AddMethod("Artifact", "current_price", o2.TyFloat(),
		func(db *o2.DB, self *o2.Object) (o2.Val, error) {
			price, _ := self.Value.Field("price")
			return o2.Float(price.AsFloat() * 1.1), nil
		})
	return s
}

// PaperDB builds the trading database of the paper's running example:
// Nympheas (1897, two owners), Waterloo Bridge (1900, one owner) and a
// pre-1800 Old Canvas filtered out by the view.
func PaperDB() *o2.DB {
	db := o2.NewDB(NewTradingSchema())
	p1, _ := db.NewObject("Person", o2.Tuple(personFields, o2.Str("Doctor X"), o2.Float(1500000)))
	p2, _ := db.NewObject("Person", o2.Tuple(personFields, o2.Str("Mme Y"), o2.Float(200000)))
	mustArtifact(db, "Nympheas", 1897, "Claude Monet", 1500000, p1, p2)
	mustArtifact(db, "Waterloo Bridge", 1900, "Claude Monet", 150000, p1)
	mustArtifact(db, "Old Canvas", 1750, "Anonymous", 1000, p2)
	return db
}

func mustArtifact(db *o2.DB, title string, year int64, creator string, price float64, owners ...string) string {
	refs := make([]o2.Val, len(owners))
	for i, o := range owners {
		refs[i] = o2.Oid(o)
	}
	oid, err := db.NewObject("Artifact", o2.Tuple(artifactFields,
		o2.Str(title), o2.Int(year), o2.Str(creator), o2.Float(price), o2.Coll(o2.CList, refs...)))
	if err != nil {
		panic(err)
	}
	return oid
}

// PaperWorks builds the XML works of Figure 1: Nympheas carries a cplace
// field, Waterloo Bridge a history field with a nested technique.
func PaperWorks() data.Forest {
	return data.Forest{
		data.Elem("work",
			data.Text("artist", "Claude Monet"),
			data.Text("title", "Nympheas"),
			data.Text("style", "Impressionist"),
			data.Text("size", "21 x 61"),
			data.Text("cplace", "Giverny"),
		),
		data.Elem("work",
			data.Text("artist", "Claude Monet"),
			data.Text("title", "Waterloo Bridge"),
			data.Text("style", "Impressionist"),
			data.Text("size", "29.2 x 46.4"),
			data.Elem("history",
				data.Text("", "Painted with"),
				data.Text("technique", "Oil on canvas"),
				data.Text("", "in London"),
			),
		),
	}
}

// Params controls the scaled workload.
type Params struct {
	Artifacts int // artifacts in the O₂ source
	Persons   int // persons in the O₂ source
	// OverlapPct is the percentage of artifacts that also appear as works
	// in the Wais source (joinable across sources).
	OverlapPct int
	// ImpressionistPct is the selectivity of style = "Impressionist".
	ImpressionistPct int
	// CplacePct is the percentage of works carrying the optional cplace
	// field; of these, GivernyPct are at "Giverny".
	CplacePct  int
	GivernyPct int
	// CheapPct is the percentage of artifacts priced under 200,000.
	CheapPct int
	// NoIndexes skips the title/creator hash indexes the trading database
	// normally maintains (used by the E12 scan-vs-index ablation).
	NoIndexes bool
	Seed      int64
}

// DefaultParams returns the baseline workload of EXPERIMENTS.md.
func DefaultParams(n int) Params {
	return Params{
		Artifacts:        n,
		Persons:          n/2 + 1,
		OverlapPct:       80,
		ImpressionistPct: 30,
		CplacePct:        40,
		GivernyPct:       25,
		CheapPct:         50,
		Seed:             42,
	}
}

// Workload is a generated pair of sources plus the ground truth needed by
// experiment assertions.
type Workload struct {
	DB    *o2.DB
	Works data.Forest
	// GivernyTitles are the titles of post-1800, joinable works created at
	// Giverny (the Q1 answer set).
	GivernyTitles []string
	// Q2Titles are the titles of joinable impressionist works priced under
	// 200,000 (the Q2 answer set).
	Q2Titles []string
}

// Generate builds a deterministic workload.
func Generate(p Params) *Workload {
	r := newRng(p.Seed)
	db := o2.NewDB(NewTradingSchema())
	w := &Workload{DB: db}
	oids := make([]string, 0, p.Persons)
	for i := 0; i < p.Persons; i++ {
		oid, err := db.NewObject("Person", o2.Tuple(personFields,
			o2.Str(fmt.Sprintf("Collector %d", i)), o2.Float(float64(10000+r.intn(2000000)))))
		if err != nil {
			panic(err)
		}
		oids = append(oids, oid)
	}
	for i := 0; i < p.Artifacts; i++ {
		title := fmt.Sprintf("Painting %d", i)
		artist := artists[r.intn(len(artists))]
		year := int64(1700 + r.intn(300))
		price := float64(1000 + r.intn(400000))
		if !r.pct(p.CheapPct) {
			price += 250000
		}
		nOwners := 1 + r.intn(3)
		owners := make([]string, nOwners)
		for j := range owners {
			owners[j] = oids[r.intn(len(oids))]
		}
		mustArtifact(db, title, year, artist, price, owners...)

		// The museum catalog (Wais source) covers only modern works: this
		// guarantees the Figure 8 containment assumption — every catalogued
		// work corresponds to a post-1800 artifact in the trading database.
		if year <= 1800 || !r.pct(p.OverlapPct) {
			continue
		}
		style := styles[1+r.intn(len(styles)-1)]
		if r.pct(p.ImpressionistPct) {
			style = "Impressionist"
		}
		work := data.Elem("work",
			data.Text("artist", artist),
			data.Text("title", title),
			data.Text("style", style),
			data.Text("size", fmt.Sprintf("%d x %d", 10+r.intn(90), 10+r.intn(90))),
		)
		giverny := false
		if r.pct(p.CplacePct) {
			place := places[1+r.intn(len(places)-1)]
			if r.pct(p.GivernyPct) {
				place = "Giverny"
				giverny = true
			}
			work.Add(data.Text("cplace", place))
		}
		if r.pct(30) {
			work.Add(data.Elem("history",
				data.Text("technique", "Oil on canvas"),
				data.Text("", fmt.Sprintf("restored in %d", 1900+r.intn(99))),
			))
		}
		w.Works = append(w.Works, work)
		if year > 1800 {
			if giverny {
				w.GivernyTitles = append(w.GivernyTitles, title)
			}
			if style == "Impressionist" && price < 200000 {
				w.Q2Titles = append(w.Q2Titles, title)
			}
		}
	}
	if !p.NoIndexes {
		// A trading database maintains associative access paths on the
		// attributes its clients search by; pushed parameterized queries
		// (Section 5.3) rely on them.
		if err := db.BuildIndex("Artifact", "title"); err != nil {
			panic(err)
		}
		if err := db.BuildIndex("Artifact", "creator"); err != nil {
			panic(err)
		}
	}
	return w
}

// NewWaisEngine indexes a forest of works under the museum configuration.
func NewWaisEngine(works data.Forest) *wais.Engine {
	cfg, err := wais.ParseConfig(MuseumSrc)
	if err != nil {
		panic(err)
	}
	e := wais.New(cfg.Name)
	e.Configure(cfg)
	for _, w := range works {
		e.Add(w)
	}
	return e
}
