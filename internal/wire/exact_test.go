package wire

import (
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/tab"
)

// exact answers every push with one tab of atoms that are hard to ship as
// text — white space to trim or collapse, markup, the column form's own
// delimiters, extreme numbers — beside the binding's own $k, echoed in a
// String column and in a column that mixes it with nulls (written per cell).
type exact struct{}

func (exact) Name() string                      { return "exact" }
func (exact) Documents() []string               { return nil }
func (exact) Fetch(string) (data.Forest, error) { return nil, errors.New("no docs") }

func (exact) Push(_ algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	strs := []string{"a\n\tb", "  x  ", "", "1e5", `<&"'>`, "Ünïcødé — 東京", "3:abc 2:xy", "\r\n"}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 100000, 7, 1, -42}
	floats := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e-300, 1e5, 0.1, -2.5, math.MaxFloat64}
	t := tab.New("$s", "$i", "$f", "$b", "$k", "$m")
	for i, s := range strs {
		m := params["$k"]
		if i%2 == 1 {
			m = tab.Null()
		}
		t.AddRow(tab.Row{tab.AtomCell(data.String(s)), tab.AtomCell(data.Int(ints[i])),
			tab.AtomCell(data.Float(floats[i])), tab.AtomCell(data.Bool(i%3 == 0)), params["$k"], m})
	}
	return t, nil
}

// sameRows reports whether a tab read over the wire is the one the source
// answered in process, to the bit: reflect.DeepEqual, and -0 still negative.
func sameRows(t *testing.T, what string, got, want *tab.Tab) {
	t.Helper()
	if got == nil || !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s over wire:\n%v\nin process:\n%v", what, got, want)
	}
	for i, r := range got.Rows {
		if g, w := r[2].Atom.F, want.Rows[i][2].Atom.F; math.Signbit(g) != math.Signbit(w) {
			t.Fatalf("%s: row %d: Float %v arrived as %v", what, i, w, g)
		}
	}
}

// TestAtomsKeepTheirTextOverWire ships atoms through scalar, streamed and
// batched pushes, and the binding values through the request: every row
// arrives reflect.DeepEqual to the in-process push. While the atoms
// travelled as element text, the parser trimmed and collapsed their white
// space ("a\n\tb" arrived as "a b", "  x  " as "x").
func TestAtomsKeepTheirTextOverWire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Exported{Source: exact{}})
	t.Cleanup(srv.Close)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var bindings []map[string]tab.Cell
	for _, k := range []string{"  spaced\tkey  ", "", `<&"'>`, "2:ab 1:c"} {
		params := map[string]tab.Cell{"$k": tab.AtomCell(data.String(k))}
		bindings = append(bindings, params)
		want, _ := exact{}.Push(anyPlan, params)
		got, err := c.Push(anyPlan, params)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "scalar push", got, want)

		cur, err := c.PushStream(context.Background(), anyPlan, params)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := tab.Drain(cur)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "streamed push", streamed, want)
	}
	res, err := c.PushBatch(anyPlan, bindings)
	if err != nil || len(res) != len(bindings) {
		t.Fatalf("batch: %d results, %v", len(res), err)
	}
	for i, b := range bindings {
		want, _ := exact{}.Push(anyPlan, b)
		sameRows(t, "batched push", res[i], want)
	}
}
