package o2

import "testing"

// FuzzParseOQL checks two properties over arbitrary input: ParseOQL never
// panics, and when it succeeds the printed query is a fixpoint — it
// reparses, and printing the reparse yields the identical text. That is what
// lets o2wrap.Wrapper.LastOQL be replayed. testdata/fuzz/FuzzParseOQL holds
// the texts o2wrap emits for Q1, Q2 and the experiments F7–F9 and E10–E13;
// the seeds below add what those never contain.
func FuzzParseOQL(f *testing.F) {
	seeds := []string{
		section41Query,
		`select * from A in artifacts`,
		`select distinct A.creator from A in artifacts where A.year > 1800 and not (A.price <= 10) or A.title != "x" order by t desc, u`,
		`select p: A.current_price() from A in artifacts where (A.price + 1) * 2 - 3 / 4 < 1.5`,
		`select bi: B.i, c0: R1.title from B in bag(tuple(i: 0, p0: "a \"quoted\" \\ back\nslash\ttab \x00 é é", p1: -5, p2: -0.25, p3: true), tuple(i: 1, p0: 'single', p1: 12345678901234567890, p2: 0.0000001, p3: false)), R1 in artifacts where R1.title = B.p0 and R1.year = -B.p1`,
		`select x: B from B in set(1, 2.5, "s"), C in list(), D in array(bag(1), tuple(a: tuple(b: list(-1))))`,
		`select x from B in bag(tuple(i 0))`,
		`select x from B in tuple(i: 0)`,
		`select x from B in bag(A.title)`,
		`select x from a in b where x = - - 1 and y = -(2) and z = -0.0`,
		`not a query at all`,
		`select x from B in bag(tuple(a: 1, a: 2))`, // refused: a named twice
		`select X.x, f1: X.y from X in as`,          // DB.Run refuses: f1 twice
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q1, err := ParseOQL(src)
		if err != nil {
			return
		}
		p1 := q1.String()
		q2, err := ParseOQL(p1)
		if err != nil {
			t.Fatalf("printed query does not reparse:\n src = %q\n p1  = %q\n err = %v", src, p1, err)
		}
		if p2 := q2.String(); p1 != p2 {
			t.Fatalf("print is not a fixpoint:\n src = %q\n p1  = %q\n p2  = %q", src, p1, p2)
		}
	})
}
