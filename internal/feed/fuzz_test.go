package feed_test

import (
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
		var want []int // 1-based numbers of the non-blank lines
		var text []string
		for i, l := range strings.Split(dump, "\n") {
			if s := strings.TrimSpace(l); s != "" {
				want = append(want, i+1)
				text = append(text, s)
			}
		}
		r := feed.NewNDXML(strings.NewReader(dump), "fuzz.ndxml")
		for k := 0; ; k++ {
			n, err := r.Next()
			if err == io.EOF {
				if k != len(want) {
					t.Fatalf("%d results for %d non-blank lines\n dump = %q", k, len(want), dump)
				}
				return
			}
			if k == len(want) {
				t.Fatalf("a result past the last non-blank line: %v, %v\n dump = %q", n, err, dump)
			}
			_, perr := xmlenc.Parse(text[k])
			var me *feed.MalformedError
			switch {
			case errors.As(err, &me):
				if me.Line != want[k] || perr == nil {
					t.Fatalf("non-blank line %d (line %d, parses: %v) reported malformed at line %d: %v\n dump = %q",
						k+1, want[k], perr == nil, me.Line, me, dump)
				}
			case err != nil:
				t.Fatalf("non-blank line %d: a terminal error over an in-memory dump: %v\n dump = %q", k+1, err, dump)
			case n == nil || perr != nil:
				t.Fatalf("line %d: record %v, though the line does not parse (%v)\n dump = %q", want[k], n, perr, dump)
			}
		}
	})
}
