// Package frontdoor is the mediator's multi-tenant query API: an
// HTTP/JSON front end over one shared Mediator with per-tenant admission
// control. Each tenant gets a token bucket (sustained rate + burst), a
// concurrency limit and a bounded, deadline-capped wait queue; work beyond
// those limits is shed with a structured ShedError naming the tenant and
// the limit it hit, so a flooding tenant degrades itself — not the
// mediator, and not its neighbours. Admitted queries stream their rows as
// NDJSON through the mediator's bounded streaming path, so the front
// door's memory stays flat no matter how large the result.
package frontdoor

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mediator"
	"repro/internal/obs"
)

// Shed codes carried by ShedError.
const (
	ShedRateLimited  = "rate_limited"  // token bucket empty
	ShedQueueFull    = "queue_full"    // wait queue at QueueDepth
	ShedQueueTimeout = "queue_timeout" // queued longer than QueueTimeout
)

// ShedError reports an admission rejection: which tenant, which limit.
type ShedError struct {
	Tenant string
	Code   string
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("frontdoor: tenant %q shed: %s", e.Tenant, e.Code)
}

// Limits bound one tenant's use of the shared mediator.
type Limits struct {
	// MaxConcurrent is the number of queries a tenant may have executing
	// at once (0 = default 8).
	MaxConcurrent int
	// QueueDepth is how many queries may wait for a slot beyond
	// MaxConcurrent before further arrivals are shed (0 = default 16,
	// negative = no queue: over-limit arrivals shed immediately).
	QueueDepth int
	// QueueTimeout caps how long a queued query waits for a slot
	// (0 = default 2s).
	QueueTimeout time.Duration
	// RatePerSec is the sustained admission rate of the token bucket;
	// 0 disables rate limiting for the tenant.
	RatePerSec float64
	// Burst is the bucket capacity (0 = max(1, RatePerSec)).
	Burst int
}

func (l Limits) withDefaults() Limits {
	if l.MaxConcurrent <= 0 {
		l.MaxConcurrent = 8
	}
	if l.QueueDepth == 0 {
		l.QueueDepth = 16
	}
	if l.QueueDepth < 0 {
		l.QueueDepth = 0
	}
	if l.QueueTimeout <= 0 {
		l.QueueTimeout = 2 * time.Second
	}
	if l.Burst <= 0 {
		l.Burst = int(l.RatePerSec)
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
	return l
}

// Options configure a Door.
type Options struct {
	// Limits apply to every tenant without an explicit entry in Tenants.
	Limits Limits
	// Tenants overrides Limits per tenant id.
	Tenants map[string]Limits
	// Exec is the base execution configuration applied to every query
	// (parallelism, caching, partial-result policy). Its Timeout caps the
	// per-query deadline (0 = 30 s); a request may ask for less, never
	// more, and may loosen nothing else.
	Exec mediator.ExecOptions
	// Metrics, when non-nil, receives per-tenant admission and latency
	// instruments (fd_* names) alongside the mediator's own metrics.
	Metrics *obs.Registry
}

// Door is the multi-tenant admission layer over one shared Mediator.
type Door struct {
	med       *mediator.Mediator
	defaults  Limits
	overrides map[string]Limits
	exec      mediator.ExecOptions
	metrics   *obs.Registry

	mu      sync.Mutex
	tenants map[string]*tenant
}

// tenant is one tenant's live admission state.
type tenant struct {
	name   string
	lim    Limits
	sem    chan struct{} // MaxConcurrent execution slots
	queued atomic.Int64  // waiters, bounded by QueueDepth
	bucket bucket
}

// bucket is a token bucket: RatePerSec refill, Burst capacity.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func (b *bucket) allow(lim Limits, now time.Time) bool {
	if lim.RatePerSec <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = float64(lim.Burst)
	} else {
		b.tokens += now.Sub(b.last).Seconds() * lim.RatePerSec
		if max := float64(lim.Burst); b.tokens > max {
			b.tokens = max
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// New builds a front door over m.
func New(m *mediator.Mediator, opts Options) *Door {
	if opts.Exec.Timeout <= 0 {
		opts.Exec.Timeout = 30 * time.Second
	}
	return &Door{
		med:       m,
		defaults:  opts.Limits.withDefaults(),
		overrides: opts.Tenants,
		exec:      opts.Exec,
		metrics:   opts.Metrics,
		tenants:   map[string]*tenant{},
	}
}

// tenantFor returns (creating on first sight) a tenant's admission state.
func (d *Door) tenantFor(name string) *tenant {
	d.mu.Lock()
	defer d.mu.Unlock()
	tn, ok := d.tenants[name]
	if !ok {
		lim := d.defaults
		if o, ok := d.overrides[name]; ok {
			lim = o.withDefaults()
		}
		tn = &tenant{name: name, lim: lim, sem: make(chan struct{}, lim.MaxConcurrent)}
		d.tenants[name] = tn
	}
	return tn
}

// tryQueue claims a queue position if the queue has room.
func (tn *tenant) tryQueue() bool {
	for {
		q := tn.queued.Load()
		if q >= int64(tn.lim.QueueDepth) {
			return false
		}
		if tn.queued.CompareAndSwap(q, q+1) {
			return true
		}
	}
}

// Admit runs tenant admission: the token bucket first (floods bounce off
// the cheapest check), then a concurrency slot, waiting in the bounded
// queue when none is free. On success the returned release must be called
// when the query — including its streamed rows — finishes; it is
// idempotent. On rejection the error is a *ShedError (or the caller's
// context error while queued).
func (d *Door) Admit(ctx context.Context, tenantName string) (release func(), err error) {
	tn := d.tenantFor(tenantName)
	if !tn.bucket.allow(tn.lim, time.Now()) {
		d.count("fd_shed_rate", tenantName)
		return nil, &ShedError{Tenant: tenantName, Code: ShedRateLimited}
	}
	select {
	case tn.sem <- struct{}{}:
	default:
		if !tn.tryQueue() {
			d.count("fd_shed_queue_full", tenantName)
			return nil, &ShedError{Tenant: tenantName, Code: ShedQueueFull}
		}
		d.gauge("fd_queued", tenantName, tn.queued.Load())
		timer := time.NewTimer(tn.lim.QueueTimeout)
		var admitted bool
		select {
		case tn.sem <- struct{}{}:
			admitted = true
		case <-timer.C:
		case <-ctx.Done():
		}
		timer.Stop()
		d.gauge("fd_queued", tenantName, tn.queued.Add(-1))
		if !admitted {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			d.count("fd_shed_queue_timeout", tenantName)
			return nil, &ShedError{Tenant: tenantName, Code: ShedQueueTimeout}
		}
	}
	d.gauge("fd_running", tenantName, int64(len(tn.sem)))
	var once sync.Once
	return func() {
		once.Do(func() {
			<-tn.sem
			d.gauge("fd_running", tenantName, int64(len(tn.sem)))
		})
	}, nil
}

func (d *Door) count(name, tenant string) {
	if d.metrics != nil {
		d.metrics.TenantCounter(name, tenant).Add(1)
	}
}

func (d *Door) gauge(name, tenant string, v int64) {
	if d.metrics != nil {
		d.metrics.TenantGauge(name, tenant).Set(v)
	}
}

func (d *Door) observe(name, tenant string, v float64) {
	if d.metrics != nil {
		d.metrics.TenantHistogram(name, tenant).Observe(v)
	}
}
