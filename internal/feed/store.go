package feed

import (
	"errors"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// Fields are the normalized record fields, in document order. Every
// surviving record carries all of them; each is indexed for equality and
// prefix lookup, id uniquely.
var Fields = []string{"id", "title", "issn", "journal", "year", "publisher"}

// Stats counts one ingest run: records accepted into the store, records
// quarantined, and the quarantine reasons. Quarantine is deliberate
// degradation — a malformed record is counted and skipped, never aborts
// the feed and never reaches the indexes.
type Stats struct {
	Ingested    int
	Quarantined int
	// Reasons histograms the quarantine causes, keyed by a stable slug
	// ("decode" for undecodable lines, else the offending field name).
	Reasons map[string]int
}

func (s *Stats) quarantine(reason string) {
	s.Quarantined++
	if s.Reasons == nil {
		s.Reasons = make(map[string]int)
	}
	s.Reasons[reason]++
}

// index supports the two declared lookups on one field: equality via the
// exact map, prefix via an ordered key list. Keys hold the normalized text
// of the field value.
type index struct {
	exact map[string][]int
	keys  []string // sorted unique keys, rebuilt at the end of each Ingest
}

func (ix *index) add(key string, rec int) {
	if ix.exact == nil {
		ix.exact = make(map[string][]int)
	}
	if _, seen := ix.exact[key]; !seen {
		ix.keys = append(ix.keys, key) // sorted by Store.Ingest once the run ends
	}
	ix.exact[key] = append(ix.exact[key], rec)
}

// Store holds the ingested, normalized records and their field indexes. It
// is write-once: Ingest runs before the wrapper starts serving, reads are
// lock-free thereafter.
type Store struct {
	recs  data.Forest
	byID  map[string]int
	idx   map[string]*index
	stats Stats
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{byID: make(map[string]int), idx: make(map[string]*index)}
	for _, f := range Fields {
		s.idx[f] = &index{}
	}
	return s
}

// Ingest drains the reader into the store through an IngestCursor, one
// bounded chunk of normalized records at a time — the pipeline never holds
// more of the dump than one chunk window. Malformed records (undecodable
// lines included) are quarantined and counted, valid ones are appended and
// indexed. Only a transport error from the reader is returned — a dump full
// of garbage ingests cleanly as zero records and a large Quarantined count.
func (s *Store) Ingest(r Reader) (Stats, error) {
	cur := NewIngestCursor(r, tab.DefaultStreamChunk)
	defer cur.Close()
	var run Stats
	for {
		t, err := cur.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			s.merge(merged(run, cur.Stats()))
			return merged(run, cur.Stats()), err
		}
		for _, row := range t.Rows {
			rec, ok := recordOf(row)
			if !ok {
				run.quarantine("decode") // defensive: the cursor only yields record trees
				continue
			}
			id := rec.Child("id").Atom.S
			if _, dup := s.byID[id]; dup {
				run.quarantine("duplicate-id")
				continue
			}
			pos := len(s.recs)
			s.recs = append(s.recs, rec)
			s.byID[id] = pos
			for _, f := range Fields {
				s.idx[f].add(fieldKey(rec.Child(f)), pos)
			}
			run.Ingested++
		}
	}
	s.sealIndexes()
	run = merged(run, cur.Stats())
	s.merge(run)
	return run, nil
}

// merged combines two stat sets into a fresh one.
func merged(a, b Stats) Stats {
	out := Stats{Ingested: a.Ingested + b.Ingested, Quarantined: a.Quarantined + b.Quarantined}
	for k, v := range a.Reasons {
		if out.Reasons == nil {
			out.Reasons = make(map[string]int)
		}
		out.Reasons[k] += v
	}
	for k, v := range b.Reasons {
		if out.Reasons == nil {
			out.Reasons = make(map[string]int)
		}
		out.Reasons[k] += v
	}
	return out
}

// merge folds a run's stats into the store's cumulative stats.
func (s *Store) merge(run Stats) {
	s.stats.Ingested += run.Ingested
	s.stats.Quarantined += run.Quarantined
	for k, v := range run.Reasons {
		if s.stats.Reasons == nil {
			s.stats.Reasons = make(map[string]int)
		}
		s.stats.Reasons[k] += v
	}
}

func (s *Store) sealIndexes() {
	for _, ix := range s.idx {
		sort.Strings(ix.keys)
	}
}

// normalizeRecord validates and canonicalizes one decoded record, returning
// the normalized copy or the quarantine reason. The rules: the element must
// be a <record> carrying every normalized field exactly once; id and title
// must be non-empty after whitespace collapsing; the issn must pass its
// checksum and is rewritten in canonical NNNN-NNNC form; the year must be
// an integer in [1400, 2100] and is stored as an Int atom. The copy is built
// in one data.Block: a record node over one leaf per field.
func normalizeRecord(n *data.Node) (*data.Node, string) {
	if n.Label != "record" {
		return nil, "not-a-record"
	}
	b := data.NewBlock(1+len(Fields), len(Fields), len(Fields))
	out := b.Elem("record")
	out.Kids = b.List(len(Fields))
	for i, f := range Fields {
		a, ok := onlyChild(n, f).AtomValue()
		if !ok {
			return nil, f
		}
		switch f {
		case "year":
			var y int64
			switch a.Kind {
			case data.KindInt:
				y = a.I
			case data.KindString:
				v, err := strconv.ParseInt(strings.TrimSpace(a.S), 10, 64)
				if err != nil {
					return nil, f
				}
				y = v
			default:
				return nil, f
			}
			if y < 1400 || y > 2100 {
				return nil, f
			}
			out.Kids[i] = b.Leaf("year", data.Int(y))
		case "issn":
			canon, err := NormalizeISSN(a.Text())
			if err != nil {
				return nil, f
			}
			out.Kids[i] = b.Leaf("issn", data.String(canon))
		default:
			v := xmlenc.CollapseSpace(a.Text())
			if v == "" && (f == "id" || f == "title") {
				return nil, f
			}
			out.Kids[i] = b.Leaf(f, data.String(v))
		}
	}
	return out, ""
}

// onlyChild returns n's one child labelled label, nil when it has none or
// several.
func onlyChild(n *data.Node, label string) *data.Node {
	var one *data.Node
	for _, k := range n.Kids {
		if k.Label == label {
			if one != nil {
				return nil
			}
			one = k
		}
	}
	return one
}

// fieldKey is the index key of a normalized field leaf: its textual form.
func fieldKey(n *data.Node) string {
	if n == nil || n.Atom == nil {
		return ""
	}
	return n.Atom.Text()
}

// Len returns the number of ingested records.
func (s *Store) Len() int { return len(s.recs) }

// Record returns the i-th ingested record.
func (s *Store) Record(i int) *data.Node { return s.recs[i] }

// Stats returns the cumulative ingest statistics.
func (s *Store) Stats() Stats { return s.stats }

// Indexed reports whether the field has an index (every normalized field
// does; anything else answers mediator-side).
func (s *Store) Indexed(field string) bool { _, ok := s.idx[field]; return ok }

// ByField returns the records whose field equals the key exactly.
func (s *Store) ByField(field, key string) []int {
	if ix, ok := s.idx[field]; ok {
		return ix.exact[key]
	}
	return nil
}

// ByPrefix returns the records whose field starts with the prefix, using
// the ordered key list: one binary search, then a scan of matching keys.
func (s *Store) ByPrefix(field, prefix string) []int {
	ix, ok := s.idx[field]
	if !ok {
		return nil
	}
	var out []int
	from := sort.SearchStrings(ix.keys, prefix)
	for _, k := range ix.keys[from:] {
		if !strings.HasPrefix(k, prefix) {
			break
		}
		out = append(out, ix.exact[k]...)
	}
	sort.Ints(out)
	return out
}

// LookupID resolves a record by its unique id — the fetch-by-id operation.
func (s *Store) LookupID(id string) (int, bool) {
	i, ok := s.byID[id]
	return i, ok
}
