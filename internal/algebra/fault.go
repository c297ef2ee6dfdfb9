package algebra

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// UnavailableError marks a source call that failed because the source is
// unreachable — a transport failure after retries, or every circuit breaker
// refusing the call while the source cools down. The availability decorator
// (internal/route) wraps such failures in it; graceful degradation
// (exec.Options.AllowPartial) recognizes it and substitutes an empty input
// instead of failing the whole query, mirroring the paper's observation that
// Skolem-connected partial results still compose.
type UnavailableError struct {
	Source string
	Err    error
}

// Error implements error.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("source %s unavailable: %v", e.Source, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *UnavailableError) Unwrap() error { return e.Err }

// SourceFailure is one entry of a partial-result report: a source the
// query touched but could not reach, with the failure that made it
// unreachable.
type SourceFailure struct {
	Source string
	Err    error
}

// PartialReport collects the per-source failures that graceful degradation
// converted into empty inputs instead of query failure. It is shared (not
// forked) across concurrent workers and thread-safe. A non-empty report
// means the result is a lower bound: every returned row is correct, but
// rows depending on the failed sources are missing.
type PartialReport struct {
	mu    sync.Mutex
	fails []SourceFailure
	seen  map[string]bool
}

// NewPartialReport returns an empty report.
func NewPartialReport() *PartialReport {
	return &PartialReport{seen: map[string]bool{}}
}

// Record notes a degraded source. One entry is kept per source: a dead
// source touched by many plan branches reports once.
func (r *PartialReport) Record(source string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[source] {
		return
	}
	r.seen[source] = true
	r.fails = append(r.fails, SourceFailure{Source: source, Err: err})
}

// Failures returns the recorded failures in first-recorded order.
func (r *PartialReport) Failures() []SourceFailure {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SourceFailure(nil), r.fails...)
}

// Len reports the number of degraded sources.
func (r *PartialReport) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fails)
}

// RetryReporter is implemented by sources whose transport layer retries
// transient failures (the wire client): TakeRetryStats drains the counters
// accumulated since the last call. Evaluation invokes it after every
// source call, folding the counts into Stats.Retries/Stats.Redials — a
// retried exchange therefore never inflates SourcePushes or SourceFetches;
// it only shows up in the dedicated counters.
type RetryReporter interface {
	TakeRetryStats() (retries, redials int)
}

// drainRetryStats folds a source's pending retry counters into the
// context's Stats; called after every source call, on success and
// failure alike (the retries preceding a final failure count too). Under
// tracing, the ambient span records the same counts — so a profile shows
// which operator's source calls needed recovery.
func drainRetryStats(ctx *Context, src Source) {
	if rr, ok := src.(RetryReporter); ok {
		r, d := rr.TakeRetryStats()
		ctx.Stats.Retries += r
		ctx.Stats.Redials += d
		if (r > 0 || d > 0) && ctx.Trace != nil {
			ctx.Trace.AddCounts(obs.Counts{Retries: r, Redials: d})
			ctx.Trace.Annotate("recovered", fmt.Sprintf("%d retries, %d redials", r, d))
		}
	}
}
