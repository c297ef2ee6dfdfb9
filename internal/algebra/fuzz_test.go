package algebra

import "testing"

// FuzzUnmarshalPlan sends arbitrary bytes where a wrapper reads the plan a
// mediator pushed to it (the <plan> of a wire <query> request). Two
// properties: decoding never panics, and a plan it accepts marshals to text
// that decodes to the same plan (equal Describe) — so what a wrapper runs is
// what the mediator printed. testdata/fuzz/FuzzUnmarshalPlan holds the
// marshaled xml_test.go fixtures, the subplans the optimizer pushes for Q1
// and Q2, and a newline string, a float printed with an exponent and an
// escaped quote as Select constants.
func FuzzUnmarshalPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		plan, err := UnmarshalPlan(src)
		if err != nil {
			return
		}
		enc, err := MarshalPlan(plan)
		if err != nil {
			t.Fatalf("a decoded plan does not marshal:\n src = %q\n err = %v", src, err)
		}
		back, err := UnmarshalPlan(enc)
		if err != nil {
			t.Fatalf("a marshaled plan does not decode:\n src = %q\n enc = %q\n err = %v", src, enc, err)
		}
		if Describe(back) != Describe(plan) {
			t.Fatalf("the codec changed the plan:\n src = %q\n enc = %q\n%s\nvs\n%s", src, enc, Describe(plan), Describe(back))
		}
	})
}
