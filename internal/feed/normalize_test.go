package feed_test

import (
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/xmlenc"
)

// normalizeRecordOracle is normalizeRecord as it was before it built each
// record in one data.Block: node by node, each field found with Children.
func normalizeRecordOracle(n *data.Node) (*data.Node, string) {
	if n.Label != "record" {
		return nil, "not-a-record"
	}
	out := data.Elem("record")
	for _, f := range feed.Fields {
		kids := n.Children(f)
		if len(kids) != 1 {
			return nil, f
		}
		a, ok := kids[0].AtomValue()
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
			out.Add(data.IntLeaf("year", y))
		case "issn":
			canon, err := feed.NormalizeISSN(a.Text())
			if err != nil {
				return nil, f
			}
			out.Add(data.Text("issn", canon))
		default:
			v := xmlenc.CollapseSpace(a.Text())
			if v == "" && (f == "id" || f == "title") {
				return nil, f
			}
			out.Add(data.Text(f, v))
		}
	}
	return out, ""
}

// feedRecords decodes every well-formed line of a generated feed dump, plus
// records each rule of normalizeRecord refuses or rewrites.
func feedRecords(t *testing.T) []*data.Node {
	var dump strings.Builder
	if err := datagen.GenerateFeed(datagen.DefaultFeedParams(2000)).WriteNDXML(&dump); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`<record><id> a  b </id><title>t</title><issn>0378-5955</issn><journal>j</journal><year> 1999 </year><publisher>p</publisher></record>`,
		`<record><id>a</id><title>t</title><issn>03785955</issn><journal/><year>1999.5</year><publisher>p</publisher></record>`,
		`<record><id>a</id><id>b</id><title>t</title><issn>0378-5955</issn><journal>j</journal><year>1999</year><publisher>p</publisher></record>`,
		`<record><id>a</id><title><x>t</x></title><issn>0378-5955</issn><journal>j</journal><year>1999</year><publisher>p</publisher></record>`,
		`<record><id>a</id><title>t</title><issn>0378-5955</issn><journal>j</journal><year>3000</year><publisher>p</publisher></record>`,
		`<record><id>a</id><title>t</title><issn>0378-5955</issn><journal>j</journal><year>1999</year></record>`,
		`<record><extra>x</extra><publisher>p</publisher><year>1999</year><journal>j</journal><issn>0378-5955</issn><title>t</title><id>a</id></record>`,
		`<paper><id>a</id></paper>`,
	} {
		dump.WriteString(line + "\n")
	}
	r := feed.NewNDXML(strings.NewReader(dump.String()), "dump.ndxml")
	defer r.Close()
	var out []*data.Node
	for {
		n, err := r.Next()
		var mal *feed.MalformedError
		switch {
		case errors.Is(err, io.EOF):
			return out
		case errors.As(err, &mal):
		case err != nil:
			t.Fatal(err)
		default:
			out = append(out, n)
		}
	}
}

func TestNormalizeRecordMatchesOracle(t *testing.T) {
	accepted := map[bool]int{}
	for i, n := range feedRecords(t) {
		got, gotReason := feed.NormalizeRecord(n)
		want, wantReason := normalizeRecordOracle(n)
		if gotReason != wantReason || !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: normalizeRecord = %v, %q; oracle = %v, %q", i, got, gotReason, want, wantReason)
		}
		accepted[gotReason == ""]++
	}
	if accepted[true] == 0 || accepted[false] == 0 {
		t.Fatalf("degenerate corpus: %d accepted, %d refused", accepted[true], accepted[false])
	}
}

func TestNormalizeRecordAllocs(t *testing.T) {
	n, err := xmlenc.Parse(goodLine)
	if err != nil {
		t.Fatal(err)
	}
	xmlenc.InferAtoms(n)
	if _, reason := feed.NormalizeRecord(n); reason != "" {
		t.Fatalf("the record is refused: %s", reason)
	}
	// measured: 4 (26 node by node, with the ISSN's digits on the heap): the
	// block's three slices and the canonical ISSN
	if a := testing.AllocsPerRun(100, func() { _, _ = feed.NormalizeRecord(n) }); a > 4 {
		t.Errorf("normalizeRecord of one record: %v allocations, want at most 4", a)
	}
}
