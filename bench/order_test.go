package main

import (
	"reflect"
	"testing"
)

func TestBalancedOrderIsSeededAndBalanced(t *testing.T) {
	counts := make([]int, 20)
	for i := range counts {
		counts[i] = 6
		if i >= 10 {
			counts[i] = 14
		}
	}
	a, b, c := balancedOrder(counts, 42), balancedOrder(counts, 42), balancedOrder(counts, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same order")
	}
	for _, order := range [][]int{a, c} {
		count := map[int]int{}
		for _, i := range order {
			count[i]++
		}
		if len(order) != 200 || len(count) != 20 {
			t.Fatalf("order of %d over %d indexes, want 200 over 20", len(order), len(count))
		}
		for i, n := range count {
			if n != counts[i] {
				t.Errorf("index %d issued %d times, want %d", i, n, counts[i])
			}
		}
	}
}

// The lookup keys of feed_ingest_lookup follow the seed; the mix of lookup
// classes does not.
func TestFeedLookupsFollowTheSeed(t *testing.T) {
	build := func(seed int64) *feedInst {
		inst, err := setupFeed(config{seed: seed, small: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return inst.(*feedInst)
	}
	keys := func(f *feedInst) (out []string, prefixes int) {
		for _, l := range f.lookups {
			out = append(out, l.param.String())
			if l.prefix {
				prefixes++
			}
		}
		return out, prefixes
	}
	a, pa := keys(build(42))
	b, _ := keys(build(42))
	c, pc := keys(build(7))
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew different lookup keys")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same lookup keys")
	}
	if want := len(a) / feedPrefixEvery; pa != want || pc != want {
		t.Errorf("%d and %d prefix lookups, want %d under either seed", pa, pc, want)
	}
}
