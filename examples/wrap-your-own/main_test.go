package main

import (
	"sort"
	"testing"
)

func TestLedgerAnswersAsTheAlgebra(t *testing.T) {
	// The query names the title $st rather than $lt, binds the hammer price
	// as $h and fixes the sale year with a constant in the pattern: the
	// ledger's lookup only narrows by title, and the year and the variable
	// names must still mean what they mean at the mediator.
	ledger := &Ledger{rows: []ledgerRow{
		{"Nympheas", 2100000, 1998},
		{"Nympheas", 1200000, 1989},
		{"Waterloo Bridge", 410000, 1997},
	}}
	med, err := connect(ledger)
	if err != nil {
		t.Fatal(err)
	}
	res, err := med.Query(`MAKE result[ title: $t, hammer: $h ]
MATCH artworks WITH doc[ *work[ title: $t ] ],
      sales WITH sales[ *sale[ title: $st, hammer: $h, year: 1998 ] ]
WHERE $t = $st`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range res.Tab.Rows {
		got = append(got, row[0].Tree.String())
	}
	sort.Strings(got)
	want := []string{`result[title:"Nympheas", hammer:2.1e+06]`}
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("rows = %q, want %q", got, want)
	}
	if ledger.Lookups == 0 || res.Stats.SourceFetches != 0 {
		t.Errorf("lookups = %d, fetches = %d: the ledger must answer by lookup, never by shipping its table",
			ledger.Lookups, res.Stats.SourceFetches)
	}
}
