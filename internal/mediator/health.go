package mediator

import (
	"repro/internal/algebra"
	"repro/internal/route"
)

// SourceHealth is one source's breaker state as reported by
// Mediator.Health.
type SourceHealth struct {
	State    string // "closed", "open" or "half-open"
	Failures int    // consecutive transport failures
	LastErr  string // most recent transport failure, if any
}

// routerFor returns the availability decorator the engine calls the named
// source through: a one-replica route.Replicated, whose breaker is the
// source's health. Calls fail fast with algebra.UnavailableError while it
// is open and transport failures are marked the same way, which is what
// AllowPartial degrades around. Built at first use (so Mediator.Breaker may
// be set after Connect) and then shared across queries: failures accumulate
// and an open breaker protects every caller. A source that already is a
// replica router is wrapped like any other — its own breakers evict single
// replicas, this one opens only when the whole set is down.
func (m *Mediator) routerFor(name string, src algebra.Source) *route.Replicated {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	if rt, ok := m.health[name]; ok {
		return rt
	}
	// New refuses only an empty or an inconsistent replica set.
	rt, _ := route.New(name, []algebra.Source{src}, route.Options{Breaker: m.Breaker})
	m.health[name] = rt
	return rt
}

// Health reports every connected source's breaker state.
func (m *Mediator) Health() map[string]SourceHealth {
	sources := m.cat.Load().sources
	out := make(map[string]SourceHealth, len(sources))
	for name, src := range sources {
		h := m.routerFor(name, src).Health()[0]
		out[name] = SourceHealth{State: h.State, Failures: h.Failures, LastErr: h.LastErr}
	}
	return out
}
