package mediator

import "repro/internal/route"

// SourceHealth is one source's breaker state as reported by
// Mediator.Health.
type SourceHealth struct {
	State    string // "closed", "open" or "half-open"
	Failures int    // consecutive transport failures
	LastErr  string // most recent transport failure, if any
}

// Health reports every connected source's breaker state.
func (m *Mediator) Health() map[string]SourceHealth { return m.cat.Load().health() }

// health reports the breaker of every router Connect made.
func (c *catalog) health() map[string]SourceHealth {
	out := make(map[string]SourceHealth, len(c.routers))
	for name, rt := range c.routers {
		h := rt.(*route.Replicated).Health()[0]
		out[name] = SourceHealth{State: h.State, Failures: h.Failures, LastErr: h.LastErr}
	}
	return out
}
