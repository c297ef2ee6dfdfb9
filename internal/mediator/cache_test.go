package mediator

import (
	"context"
	"testing"

	"repro/internal/datagen"
)

// TestWarmCacheSkipsPushes is the mediator-level cache contract: with a
// cache installed (EnableCache), rerunning a pushdown query answers every wrapper
// push from the installed cache — zero additional round trips, identical rows.
func TestWarmCacheSkipsPushes(t *testing.T) {
	m, _, _ := paperSetup(t)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")

	m.EnableCache(256)
	opts := ExecOptions{Parallelism: 1}
	cold, err := m.ExecuteContext(context.Background(), datagen.Q2Src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.SourcePushes == 0 {
		t.Fatal("Q2 must push to sources")
	}
	if cold.Stats.CacheHits != 0 {
		t.Errorf("cold run hits = %d", cold.Stats.CacheHits)
	}

	warm, err := m.ExecuteContext(context.Background(), datagen.Q2Src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Tab.Equal(warm.Tab) {
		t.Errorf("warm rows diverge:\ncold:\n%s\nwarm:\n%s", cold.Tab, warm.Tab)
	}
	if warm.Stats.CacheHits == 0 {
		t.Errorf("warm run hits = 0 (stats %+v)", warm.Stats)
	}
	if warm.Stats.SourcePushes != 0 {
		t.Errorf("warm run still pushed %d times", warm.Stats.SourcePushes)
	}

	// Without EnableCache no cache is installed and the counters stay silent.
	m2, _, _ := paperSetup(t)
	m2.Assume("artifacts", "works", "$y > 1800")
	m2.Assume("persons", "works", "$y > 1800")
	plain, err := m2.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.CacheHits != 0 || plain.Stats.CacheMisses != 0 {
		t.Errorf("uncached run touched cache counters: %+v", plain.Stats)
	}
}

// TestEnableCacheSurvivesAcrossOptions pins the cache's lifetime: it belongs
// to the mediator, so it stays warm across queries whatever options they
// run under, until EnableCache replaces or removes it.
func TestEnableCacheSurvivesAcrossOptions(t *testing.T) {
	m, _, _ := paperSetup(t)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	m.EnableCache(64)

	if _, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	warm, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits == 0 {
		t.Errorf("explicitly enabled cache was replaced: %+v", warm.Stats)
	}
	// Disabling drops the cache.
	m.EnableCache(0)
	off, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.CacheHits != 0 || off.Stats.SourcePushes == 0 {
		t.Errorf("disabled cache still answering: %+v", off.Stats)
	}
}
