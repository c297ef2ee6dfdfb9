package feed_test

import (
	"archive/zip"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/xmlenc"
)

// FuzzNDXML reads arbitrary bytes as a newline-delimited XML dump, the
// untrusted input of feed ingest. Three properties: Next never panics;
// every non-blank line yields exactly one record or one *MalformedError
// carrying that line's 1-based number, in line order — a record exactly
// when the trimmed line parses; and reading goes on past a MalformedError
// to the end of the dump. The seeds are runs of lines from a generated dump
// with every class of its deliberately broken records among them, one run
// with blank and CRLF-terminated lines.
func FuzzNDXML(f *testing.F) {
	var dump strings.Builder
	if err := datagen.GenerateFeed(datagen.FeedParams{Records: 40, MalformedPct: 25, Seed: 42}).WriteNDXML(&dump); err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(dump.String(), "\n")
	for i := 0; i < len(lines); i += 5 {
		f.Add(strings.Join(lines[i:min(i+5, len(lines))], ""))
	}
	f.Add("\n" + strings.TrimSuffix(lines[0], "\n") + "\r\n  \n" + lines[1] + "\t\n" + strings.TrimSuffix(lines[2], "\n"))
	f.Fuzz(func(t *testing.T, dump string) {
		r := feed.NewNDXML(strings.NewReader(dump), "fuzz.ndxml")
		checkLines(t, r, "fuzz.ndxml", dump)
		if n, err := r.Next(); err != io.EOF {
			t.Fatalf("a result past the last non-blank line: %v, %v\n dump = %q", n, err, dump)
		}
	})
}

// checkLines reads from r one result per non-blank line of the entry named
// entry holding text, in line order: a record exactly when the trimmed line
// parses, else a *MalformedError naming the entry and the line's 1-based
// number.
func checkLines(t *testing.T, r feed.Reader, entry, text string) {
	t.Helper()
	for i, l := range strings.Split(text, "\n") {
		s := strings.TrimSpace(l)
		if s == "" {
			continue
		}
		n, err := r.Next()
		_, perr := xmlenc.Parse(s)
		var me *feed.MalformedError
		switch {
		case errors.As(err, &me):
			if me.Entry != entry || me.Line != i+1 || perr == nil {
				t.Fatalf("%s line %d (parses: %v) reported malformed as %s line %d: %v\n text = %q",
					entry, i+1, perr == nil, me.Entry, me.Line, me, text)
			}
		case err != nil:
			t.Fatalf("%s line %d: %v in place of its result\n text = %q", entry, i+1, err, text)
		case n == nil || perr != nil:
			t.Fatalf("%s line %d: record %v, though the line does not parse (%v)\n text = %q", entry, i+1, n, perr, text)
		}
	}
}

// FuzzZipDump reads zip dumps, the form cmd/feed-wrapper takes `.zip` files
// in. Over arbitrary bytes, NewZip refuses the archive or reading it ends —
// at io.EOF or a terminal error — without panicking. Over an archive built
// from fuzz-chosen entries (spec: entries split by NUL, each a name line and
// its text), every non-blank line of each .ndxml or .xml entry yields, in
// entry order, one record or one *MalformedError naming its entry and line,
// and every other entry yields nothing. The seeds are a generated dump's
// archive, whole and torn, and entry lists mixing its lines with entries
// the reader must skip.
func FuzzZipDump(f *testing.F) {
	corpus := datagen.GenerateFeed(datagen.FeedParams{Records: 24, MalformedPct: 25, Seed: 42})
	var archive bytes.Buffer
	if err := corpus.WriteZip(&archive, 3); err != nil {
		f.Fatal(err)
	}
	lines := corpus.Lines
	spec := "a.ndxml\n" + strings.Join(lines[:8], "\n") +
		"\x00notes.txt\n" + lines[8] +
		"\x00b.xml\n\n" + strings.Join(lines[9:16], "\r\n") + "\n  \n" +
		"\x00c.ndxml\n" + strings.Join(lines[16:], "\n") + "\n"
	whole := archive.Bytes()
	f.Add(whole, spec)
	f.Add(whole[:len(whole)/2], "only.xml\n<a/>\n<b>")
	f.Add([]byte{}, "")
	f.Fuzz(func(t *testing.T, raw []byte, spec string) {
		if r, err := feed.NewZip(bytes.NewReader(raw), int64(len(raw))); err == nil {
			for {
				var me *feed.MalformedError
				if _, err := r.Next(); err != nil && !errors.As(err, &me) {
					break
				}
			}
			r.Close()
		}

		type entry struct{ name, text string }
		var entries []entry
		var buf bytes.Buffer
		zw := zip.NewWriter(&buf)
		for _, e := range strings.Split(spec, "\x00") {
			name, text, _ := strings.Cut(e, "\n")
			w, err := zw.Create(name)
			if err == nil {
				_, err = io.WriteString(w, text)
			}
			if err != nil {
				t.Skipf("entry %q cannot be archived: %v", name, err)
			}
			entries = append(entries, entry{name, text})
		}
		if err := zw.Close(); err != nil {
			t.Skipf("archive cannot be closed: %v", err)
		}
		r, err := feed.NewZip(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("NewZip refused an archive zip.Writer built: %v\n spec = %q", err, spec)
		}
		defer r.Close()
		for _, e := range entries {
			if strings.HasSuffix(e.name, ".ndxml") || strings.HasSuffix(e.name, ".xml") {
				checkLines(t, r, e.name, e.text)
			}
		}
		if n, err := r.Next(); err != io.EOF {
			t.Fatalf("a result past the last record-bearing line: %v, %v\n spec = %q", n, err, spec)
		}
	})
}
