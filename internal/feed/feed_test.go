package feed_test

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/filter"
	"repro/internal/pattern"
	"repro/internal/tab"
)

func TestNormalizeISSN(t *testing.T) {
	cases := []struct{ in, want string }{
		{"0378-5955", "0378-5955"},
		{"03785955", "0378-5955"},
		{"0378 5955", "0378-5955"},
		{"2434-561x", "2434-561X"},
	}
	for _, c := range cases {
		got, err := feed.NormalizeISSN(c.in)
		if err != nil || got != c.want {
			t.Errorf("NormalizeISSN(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"0378-5954", "0378-595", "0378-59555", "03x8-5955", "0378_5955", ""} {
		if _, err := feed.NormalizeISSN(bad); err == nil {
			t.Errorf("NormalizeISSN(%q) must fail", bad)
		}
	}
}

func TestISSNCheckDigitMintsValid(t *testing.T) {
	for _, seven := range []string{"0378595", "2434561", "0000000", "9999999"} {
		c, err := feed.ISSNCheckDigit(seven)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := feed.NormalizeISSN(seven + string(c)); err != nil {
			t.Errorf("minted issn %s%c does not verify: %v", seven, c, err)
		}
	}
}

const goodLine = `<record><id>rec-1</id><title>Painting 1</title><issn>0378-5955</issn><journal>Journal of Modern Art</journal><year>1901</year><publisher>Musee Press</publisher></record>`

// TestNDXMLReaderQuarantine pins the recoverable-error contract: a broken
// line surfaces as *MalformedError naming the entry and line, and the
// reader keeps yielding records past it.
func TestNDXMLReaderQuarantine(t *testing.T) {
	dump := goodLine + "\n\n<record><id>x</id><title>\n" + strings.ReplaceAll(goodLine, "rec-1", "rec-2") + "\n"
	r := feed.NewNDXML(strings.NewReader(dump), "t.ndxml")
	defer r.Close()
	if n, err := r.Next(); err != nil || n.Label != "record" {
		t.Fatalf("first record: %v, %v", n, err)
	}
	_, err := r.Next()
	mal, ok := err.(*feed.MalformedError)
	if !ok {
		t.Fatalf("want *MalformedError, got %v", err)
	}
	if mal.Entry != "t.ndxml" || mal.Line != 3 {
		t.Errorf("malformed at %s line %d, want t.ndxml line 3", mal.Entry, mal.Line)
	}
	if n, err := r.Next(); err != nil || n.Child("id").Atom.S != "rec-2" {
		t.Fatalf("reader must continue past a malformed line: %v, %v", n, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

// TestZipMatchesNDXML pins that the two dump formats ingest identically.
func TestZipMatchesNDXML(t *testing.T) {
	c := datagen.GenerateFeed(datagen.FeedParams{Records: 200, MalformedPct: 10, Seed: 7})
	var nd strings.Builder
	if err := c.WriteNDXML(&nd); err != nil {
		t.Fatal(err)
	}
	var zb bytes.Buffer
	if err := c.WriteZip(&zb, 3); err != nil {
		t.Fatal(err)
	}
	s1 := feed.NewStore()
	if _, err := s1.Ingest(feed.NewNDXML(strings.NewReader(nd.String()), "c.ndxml")); err != nil {
		t.Fatal(err)
	}
	zr, err := feed.NewZip(bytes.NewReader(zb.Bytes()), int64(zb.Len()))
	if err != nil {
		t.Fatal(err)
	}
	s2 := feed.NewStore()
	if _, err := s2.Ingest(zr); err != nil {
		t.Fatal(err)
	}
	if s1.Len() != len(c.Records) || s2.Len() != len(c.Records) {
		t.Fatalf("ingested %d (ndxml) / %d (zip), want %d", s1.Len(), s2.Len(), len(c.Records))
	}
	if st1, st2 := s1.Stats(), s2.Stats(); st1.Quarantined != st2.Quarantined {
		t.Fatalf("quarantine differs across formats: %v vs %v", st1, st2)
	}
}

// TestIngestQuarantineHistogram pins the per-reason quarantine counts
// against the generator's ground truth.
func TestIngestQuarantineHistogram(t *testing.T) {
	c := datagen.GenerateFeed(datagen.FeedParams{Records: 500, MalformedPct: 12, Seed: 3})
	s := datagen.NewFeedStore(c)
	st := s.Stats()
	if st.Ingested != len(c.Records) {
		t.Fatalf("Ingested = %d, want %d", st.Ingested, len(c.Records))
	}
	wantQ := 0
	for reason, n := range c.Malformed {
		wantQ += n
		if st.Reasons[reason] != n {
			t.Errorf("Reasons[%q] = %d, want %d", reason, st.Reasons[reason], n)
		}
	}
	if st.Quarantined != wantQ {
		t.Errorf("Quarantined = %d, want %d", st.Quarantined, wantQ)
	}
	if wantQ == 0 {
		t.Fatal("corpus generated no malformed lines; raise MalformedPct")
	}
}

// TestIngestCursorBoundedChunks pins the flat-memory contract of the
// ingest bridge: every chunk is bounded, malformed records are counted in
// the cursor's stats, and the yielded records are already normalized.
func TestIngestCursorBoundedChunks(t *testing.T) {
	c := datagen.GenerateFeed(datagen.FeedParams{Records: 300, MalformedPct: 10, Seed: 11})
	var nd strings.Builder
	if err := c.WriteNDXML(&nd); err != nil {
		t.Fatal(err)
	}
	cur := feed.NewIngestCursor(feed.NewNDXML(strings.NewReader(nd.String()), "c.ndxml"), 32)
	defer cur.Close()
	total := 0
	for {
		chunk, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if chunk.Len() == 0 || chunk.Len() > 32 {
			t.Fatalf("chunk of %d rows, want 1..32", chunk.Len())
		}
		for _, row := range chunk.Rows {
			rec := row[0].Tree
			if _, err := feed.NormalizeISSN(rec.Child("issn").Atom.S); err != nil {
				t.Fatalf("cursor yielded unnormalized record: %v", err)
			}
		}
		total += chunk.Len()
	}
	// Duplicate-id quarantine happens store-side; the cursor yields those
	// records, so they count toward the total here.
	if want := len(c.Records) + c.Malformed["duplicate-id"]; total != want {
		t.Fatalf("cursor yielded %d records, want %d", total, want)
	}
	if got := cur.Stats().Quarantined; got != c.Malformed["decode"]+c.Malformed["issn"]+c.Malformed["title"]+c.Malformed["year"] {
		t.Fatalf("cursor quarantined %d, histogram %v", got, c.Malformed)
	}
}

func feedFixture(t *testing.T) (*feed.Wrapper, *datagen.FeedCorpus) {
	t.Helper()
	c := datagen.GenerateFeed(datagen.FeedParams{Records: 400, MalformedPct: 5, Seed: 42})
	return feed.New("bulkfeed", datagen.NewFeedStore(c)), c
}

func TestStoreLookups(t *testing.T) {
	w, c := feedFixture(t)
	s := w.S
	want := 0
	for _, r := range c.Records {
		if r.Journal == "Journal of Modern Art" {
			want++
		}
	}
	if got := len(s.ByField("journal", "Journal of Modern Art")); got != want {
		t.Errorf("ByField(journal) = %d rows, want %d", got, want)
	}
	wantP := 0
	for _, r := range c.Records {
		if strings.HasPrefix(r.Journal, "Journal of") {
			wantP++
		}
	}
	if got := len(s.ByPrefix("journal", "Journal of")); got != wantP {
		t.Errorf("ByPrefix(journal) = %d rows, want %d", got, wantP)
	}
	id := c.Records[17].ID
	i, ok := s.LookupID(id)
	if !ok || s.Record(i).Child("id").Atom.S != id {
		t.Errorf("LookupID(%s) failed", id)
	}
	if _, ok := s.LookupID("rec-nosuch"); ok {
		t.Error("LookupID must miss on unknown ids")
	}
}

func TestExportStructureMatchesRecords(t *testing.T) {
	w, _ := feedFixture(t)
	m := w.ExportStructure()
	if !pattern.InstanceOfModel(pattern.YATModel(), m) {
		t.Error("feed structure must instantiate the YAT metamodel")
	}
	forest, err := w.Fetch("records")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range forest[0].Kids[:10] {
		if !pattern.MatchData(m, m.Lookup("Record"), rec) {
			t.Errorf("record does not match exported structure: %s", rec)
		}
	}
}

func TestExportInterfaceProfile(t *testing.T) {
	w, _ := feedFixture(t)
	i := w.ExportInterface()
	back, err := capability.Unmarshal(capability.Marshal(i))
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasOperation("eq") || !back.HasOperation("prefix") {
		t.Error("eq/prefix operations lost in the XML round trip")
	}
	if back.HasOperation("contains") || back.HasOperation("lt") || back.HasOperation("join") {
		t.Error("feed profile must not grow wais or o2 operations")
	}
	if err := back.AcceptsFilter("records", filter.MustParse(`records[ *record@$r[ title: $t, issn: $i ] ]`)); err != nil {
		t.Errorf("must accept field-enumerating binds: %v", err)
	}
	if err := back.AcceptsFilter("records", filter.MustParse(`records@$d[ *record[ title: $t ] ]`)); err == nil {
		t.Error("must reject binding the records root")
	}
	if err := back.AcceptsFilter("records", filter.MustParse(`records[ *record[ history[ technique: $x ] ] ]`)); err == nil {
		t.Error("must reject navigation below fields")
	}
}

func eqPlan(field, val string) algebra.Op {
	return &algebra.Select{
		From: &algebra.Bind{Doc: "records", F: filter.MustParse(
			`records[ *record[ id: $id, title: $t, ` + field + `: $f ] ]`)},
		Pred: algebra.MustParseExpr(`$f = "` + val + `"`),
	}
}

func TestPushEquality(t *testing.T) {
	w, c := feedFixture(t)
	res, err := w.Push(eqPlan("journal", "Revue des Beaux-Arts"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range c.Records {
		if r.Journal == "Revue des Beaux-Arts" {
			want++
		}
	}
	if res.Len() != want {
		t.Fatalf("rows = %d, want %d", res.Len(), want)
	}
}

func TestPushFetchByID(t *testing.T) {
	w, c := feedFixture(t)
	res, err := w.Push(eqPlan("id", c.Records[3].ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("fetch-by-id rows = %d, want 1", res.Len())
	}
	if got := res.Rows[0][res.ColIndex("$t")]; got.Atom.S != c.Records[3].Title {
		t.Errorf("title = %v, want %s", got, c.Records[3].Title)
	}
}

func TestPushPrefix(t *testing.T) {
	w, c := feedFixture(t)
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "records", F: filter.MustParse(
			`records[ *record[ id: $id, journal: $j ] ]`)},
		Pred: algebra.MustParseExpr(`prefix($j, "Journal of")`),
	}
	res, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range c.Records {
		if strings.HasPrefix(r.Journal, "Journal of") {
			want++
		}
	}
	if res.Len() != want {
		t.Fatalf("prefix rows = %d, want %d", res.Len(), want)
	}
}

func TestPushParameterized(t *testing.T) {
	w, c := feedFixture(t)
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "records", F: filter.MustParse(
			`records[ *record[ id: $id, title: $t ] ]`)},
		Pred: algebra.MustParseExpr(`$id = $k`),
	}
	res, err := w.Push(plan, map[string]tab.Cell{"$k": tab.AtomCell(data.String(c.Records[9].ID))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("parameterized fetch-by-id rows = %d, want 1", res.Len())
	}
}

func TestPushRejectsBeyondProfile(t *testing.T) {
	w, _ := feedFixture(t)
	ordered := &algebra.Select{
		From: &algebra.Bind{Doc: "records", F: filter.MustParse(
			`records[ *record[ id: $id, year: $y ] ]`)},
		Pred: algebra.MustParseExpr(`$y > 1900`),
	}
	if _, err := w.Push(ordered, nil); err == nil {
		t.Error("ordering comparison must be refused")
	}
	contains := &algebra.Select{
		From: &algebra.Bind{Doc: "records", F: filter.MustParse(
			`records[ *record[ id: $id, title: $t ] ]`)},
		Pred: algebra.MustParseExpr(`contains($t, "Painting")`),
	}
	if _, err := w.Push(contains, nil); err == nil {
		t.Error("contains must be refused")
	}
	wholeDoc := &algebra.Bind{Doc: "records", F: filter.MustParse(`records@$d`)}
	if _, err := w.Push(wholeDoc, nil); err == nil {
		t.Error("binding the records root must be refused")
	}
}

func TestPushStreamMatchesPush(t *testing.T) {
	w, _ := feedFixture(t)
	plan := eqPlan("publisher", "Musee Press")
	oneShot, err := w.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := w.PushStream(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	streamed := tab.New(cur.Cols()...)
	for {
		chunk, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if chunk.Len() > tab.DefaultStreamChunk {
			t.Fatalf("chunk of %d rows exceeds the stream chunk bound", chunk.Len())
		}
		streamed.Rows = append(streamed.Rows, chunk.Rows...)
	}
	if streamed.Len() != oneShot.Len() {
		t.Fatalf("streamed %d rows, one-shot %d", streamed.Len(), oneShot.Len())
	}
}

func TestPushStreamHonoursContext(t *testing.T) {
	w, _ := feedFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := w.PushStream(ctx, eqPlan("publisher", "Musee Press"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	cancel()
	if _, err := cur.Next(); err == nil || err == io.EOF {
		t.Fatalf("cancelled stream must fail, got %v", err)
	}
}
