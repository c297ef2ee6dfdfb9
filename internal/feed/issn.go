// Package feed implements the third wrapper family, the bulk feed: a
// source wrapping bulk XML metadata dumps (newline-delimited `.ndxml` files
// and zip archives of them) behind the restricted capability profile of
// modern feed APIs — filter-by-field (equality and prefix over normalized
// fields) plus fetch-by-id, and nothing else.
//
// The package has three layers. The readers (reader.go) decode dumps one
// record at a time without slurping the file, so ingest memory stays flat
// at one record plus buffering. Ingest (store.go) normalizes and validates
// every field — checksum-verified ISSNs in canonical form, collapsed
// whitespace, ranged years — and quarantines malformed records with
// per-reason counters instead of aborting the feed. The store indexes the
// surviving records per field for the exact operations the capability
// interface (wrapper.go) declares; everything else stays mediator-side. A
// pushed plan is answered in two steps (stream.go): the indexes narrow the
// records to candidates, and the algebra answers the plan over them, so the
// wrapper evaluates nothing the mediator would evaluate differently.
package feed

import (
	"fmt"
	"strings"
)

// NormalizeISSN canonicalizes an ISSN to the "NNNN-NNNC" form and verifies
// its ISO 3297 checksum: the first seven digits weighted 8..2, summed, and
// the check character making the total a multiple of 11 (10 is written X).
// Dashes and spaces in the input are ignored; a lowercase x check digit is
// accepted and uppercased.
func NormalizeISSN(s string) (string, error) {
	var digits []byte
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			digits = append(digits, c)
		case c == 'x' || c == 'X':
			digits = append(digits, 'X')
		case c == '-' || c == ' ':
			// separators are ignored
		default:
			return "", fmt.Errorf("issn %q: invalid character %q", s, c)
		}
	}
	if len(digits) != 8 {
		return "", fmt.Errorf("issn %q: want 8 digits, have %d", s, len(digits))
	}
	sum := 0
	for i := 0; i < 7; i++ {
		if digits[i] == 'X' {
			return "", fmt.Errorf("issn %q: X only valid as check digit", s)
		}
		sum += int(digits[i]-'0') * (8 - i)
	}
	check := (11 - sum%11) % 11
	want := byte('0' + check)
	if check == 10 {
		want = 'X'
	}
	if digits[7] != want {
		return "", fmt.Errorf("issn %q: checksum mismatch (check digit %c, want %c)", s, digits[7], want)
	}
	var b strings.Builder
	b.Write(digits[:4])
	b.WriteByte('-')
	b.Write(digits[4:])
	return b.String(), nil
}

// issnCheckDigit computes the check character for the seven leading digits
// of an ISSN; datagen uses it to mint valid identifiers.
func ISSNCheckDigit(seven string) (byte, error) {
	if len(seven) != 7 {
		return 0, fmt.Errorf("issn prefix %q: want 7 digits", seven)
	}
	sum := 0
	for i := 0; i < 7; i++ {
		c := seven[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("issn prefix %q: invalid digit %q", seven, c)
		}
		sum += int(c-'0') * (8 - i)
	}
	check := (11 - sum%11) % 11
	if check == 10 {
		return 'X', nil
	}
	return byte('0' + check), nil
}
