package o2wrap

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/o2"
)

// oracleFetch is a test-only copy of the node-by-node extent export that the
// block builder replaced: Fetch with ExportObject and ExportVal.
func oracleFetch(w *Wrapper, doc string) data.Forest {
	set := data.Elem("set")
	shipped := map[string]bool{}
	var queue []string
	for _, oid := range w.DB.Extents[doc] {
		set.Add(oracleObject(w.DB.Get(oid)))
		shipped[oid] = true
		queue = append(queue, oid)
	}
	forest := data.Forest{set}
	for len(queue) > 0 {
		oid := queue[0]
		queue = queue[1:]
		collectRefs(w.DB.Get(oid).Value.Val, func(ref string) {
			if !shipped[ref] {
				shipped[ref] = true
				forest = append(forest, oracleObject(w.DB.Get(ref)))
				queue = append(queue, ref)
			}
		})
	}
	return forest
}

func oracleObject(o *o2.Object) *data.Node {
	return data.Elem("class",
		data.Elem(strings.ToLower(o.Class), oracleVal(o.Value.Val)),
	).WithID(o.OID)
}

func oracleVal(v o2.Val) *data.Node {
	switch v.Kind {
	case o2.VInt:
		return &data.Node{Atom: &data.Atom{Kind: data.KindInt, I: v.I}}
	case o2.VFloat:
		return &data.Node{Atom: &data.Atom{Kind: data.KindFloat, F: v.F}}
	case o2.VBool:
		return &data.Node{Atom: &data.Atom{Kind: data.KindBool, B: v.B}}
	case o2.VStr:
		return &data.Node{Atom: &data.Atom{Kind: data.KindString, S: v.S}}
	case o2.VOid:
		return data.RefNode("ref", v.S)
	case o2.VTuple:
		n := data.Elem("tuple")
		for i, name := range v.Names {
			fv := oracleVal(v.Elems[i])
			field := data.Elem(name)
			if fv.Label == "" && fv.Atom != nil {
				field.Atom = fv.Atom
			} else {
				field.Add(fv)
			}
			n.Add(field)
		}
		return n
	case o2.VColl:
		n := data.Elem(v.Col.String())
		for _, e := range v.Elems {
			ev := oracleVal(e)
			if ev.Label == "" && ev.Atom != nil {
				ev.Label = "item"
			}
			n.Add(ev)
		}
		return n
	default:
		return data.Elem("nil")
	}
}

// oracleDB holds every value kind the export maps: the generated trading
// database plus a class whose tuple has a bool, an empty collection, a
// collection of atoms and a nested tuple.
func oracleDB(t *testing.T) *o2.DB {
	db := datagen.Generate(datagen.DefaultParams(40)).DB
	db.Schema.AddClass("Misc", o2.TyTuple(
		o2.F("flag", o2.TyBool()),
		o2.F("none", o2.TyColl(o2.CList, o2.TyInt())),
		o2.F("tags", o2.TyColl(o2.CSet, o2.TyStr())),
		o2.F("inner", o2.TyTuple(o2.F("n", o2.TyInt()), o2.F("who", o2.TyClass("Person")))),
	), "miscs")
	if _, err := db.NewObject("Misc", o2.Tuple([]string{"flag", "none", "tags", "inner"},
		o2.Bool(true),
		o2.Coll(o2.CList),
		o2.Coll(o2.CSet, o2.Str("a"), o2.Str("")),
		o2.Tuple([]string{"n", "who"}, o2.Int(3), o2.Oid(db.Extents["persons"][0])),
	)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFetchMatchesOracle(t *testing.T) {
	for _, db := range []*o2.DB{datagen.PaperDB(), oracleDB(t)} {
		w := New("o2artifact", db)
		for _, doc := range w.extentDocuments() {
			got, err := w.Fetch(doc)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleFetch(w, doc); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Fetch\n%s\noracle\n%s", doc, got, want)
			}
		}
	}
}

func TestFetchAllocs(t *testing.T) {
	w := New("o2artifact", datagen.PaperDB())
	// measured: 6 (122 node by node, 10 with a label per object, 7 with a
	// label per class and Fetch): the block's three slices, the object list
	// grown once, and the builder's stack of open elements
	if n := testing.AllocsPerRun(20, func() { _, _ = w.Fetch("artifacts") }); n > 6 {
		t.Errorf("Fetch of artifacts: %v allocations, want at most 6", n)
	}
}
