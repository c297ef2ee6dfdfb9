package o2wrap

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/o2"
	"repro/internal/xmlenc"
)

// TestWriteDocMatchesSerializedOracle holds the XML the wrapper writes for
// each extent document, tree by tree, to the serializer's text for the trees
// of the node-by-node export (oracleFetch), over the paper's database, the
// one with every value kind, and the benchmark's 5,000 generated artifacts
// (seed 42).
func TestWriteDocMatchesSerializedOracle(t *testing.T) {
	for _, db := range []*o2.DB{datagen.PaperDB(), oracleDB(t), datagen.Generate(datagen.DefaultParams(5000)).DB} {
		w := New("o2artifact", db)
		for _, doc := range w.extentDocuments() {
			trees, appendTree, err := w.WriteDoc(doc)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleFetch(w, doc)
			if trees != len(want) {
				t.Fatalf("%s: %d trees written, oracle has %d", doc, trees, len(want))
			}
			var got []byte
			for i, tree := range want {
				got = appendTree(got[:0], i)
				if w := xmlenc.AppendSerialize(nil, tree); !bytes.Equal(got, w) {
					t.Fatalf("%s, tree %d: written\n%s\nserialized\n%s", doc, i, got, w)
				}
			}
		}
	}
}

// writeVal returns the XML the writer writes for v.
func writeVal(w *Wrapper, v o2.Val) []byte {
	e := w.emitter()
	e.mode = writing
	e.val(&v, "")
	return e.xml
}

// valReader decodes an O₂ value from a fuzzer's bytes: a byte picks each
// value's kind, and the bytes after it give its content.
type valReader struct{ b []byte }

func (r *valReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// fuzzText holds the characters strings and oids are made of: some to
// escape, a space, a multi-byte one.
const fuzzText = `ab <>&"'é1`

func (r *valReader) str() string {
	s := make([]rune, r.next()%5)
	for i := range s {
		s[i] = []rune(fuzzText)[int(r.next())%len([]rune(fuzzText))]
	}
	return string(s)
}

// fuzzNames are the field names a tuple may use, two of them labels the
// export itself writes.
var fuzzNames = []string{"title", "ref", "item", "owners"}

func (r *valReader) val(depth int) o2.Val {
	kind := r.next() % 9
	if depth > 3 {
		kind %= 5 // no deeper nesting
	}
	switch kind {
	case 0:
		return o2.Int(int64(int16(uint16(r.next())<<8 | uint16(r.next()))))
	case 1:
		var bits uint64
		for range 8 {
			bits = bits<<8 | uint64(r.next())
		}
		return o2.Float(math.Float64frombits(bits))
	case 2:
		return o2.Bool(r.next()%2 == 0)
	case 3:
		return o2.Str(r.str())
	case 4:
		return o2.Oid(r.str())
	case 5: // a tuple of distinct names
		n := int(r.next()) % (len(fuzzNames) + 1)
		vals := make([]o2.Val, n)
		for i := range vals {
			vals[i] = r.val(depth + 1)
		}
		return o2.Tuple(fuzzNames[:n], vals...)
	case 6, 7: // a collection: kind 7 starts with a run of references
		c := o2.Coll(o2.CollKind(r.next() % 4))
		if kind == 7 {
			for range r.next() % 4 {
				c.Elems = append(c.Elems, o2.Oid(r.str()))
			}
		}
		for range r.next() % 4 {
			c.Elems = append(c.Elems, r.val(depth+1))
		}
		return c
	default:
		return o2.Nil()
	}
}

// FuzzWriteMatchesSerialize holds the writer to the serializer: for a value
// decoded from arbitrary bytes, the XML the wrapper writes is the text
// xmlenc.AppendSerialize gives for the tree it builds (ExportVal).
func FuzzWriteMatchesSerialize(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 1, 2}, // an int
		{1, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18}, // a float
		{3, 4, 3, 4, 5, 6}, // a string to escape
		{3, 0},             // an empty string
		{4, 2, 0, 1},       // a reference
		{4, 0},             // a reference to no oid
		{5, 4, 3, 1, 0, 4, 1, 1, 5, 2, 2, 0, 8, 6, 0, 0},    // a tuple over references, a nested tuple, an empty collection
		{7, 1, 3, 1, 0, 2, 1, 2, 1, 2, 2, 3, 1, 9, 4, 1, 1}, // a bag of references, then an atom and another reference
		{7, 0, 2, 0, 1, 1, 0},                               // a reference to no oid, which starts no run, then one
		{6, 2, 2, 8, 5, 0},                                  // a list of nil and an empty tuple
	} {
		f.Add(seed)
	}
	w := New("o2artifact", datagen.PaperDB())
	f.Fuzz(func(t *testing.T, b []byte) {
		v := (&valReader{b}).val(0)
		if got, want := writeVal(w, v), xmlenc.AppendSerialize(nil, w.ExportVal(v)); !bytes.Equal(got, want) {
			t.Fatalf("%s: written\n%s\nserialized\n%s", v, got, want)
		}
	})
}
