package feed

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/tab"
)

// The feed wrapper streams pushed queries natively: the index lookups are
// cheap (ascending id lists), only matching and verifying candidate records
// is O(result), and exec.Candidates paces it by the consumer. A native
// FetchStream is deliberately absent — the records document is
// single-rooted, and re-chunking it under synthetic roots would change the
// semantics of a mediator-side bind over the whole root (a pushed bind
// cannot bind the root: fieldVarsOf refuses it); the wire layer already
// adapts Fetch into bounded stream frames.
var _ algebra.PushStreamSource = (*Wrapper)(nil)

// Push implements algebra.Source: PushStream drained.
func (w *Wrapper) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	cur, err := w.PushStream(context.Background(), plan, params)
	if err != nil {
		return nil, err
	}
	return tab.Drain(cur)
}

// PushStream implements algebra.PushStreamSource, and is the wrapper's one
// answer to a push: the capability check and the index narrowing run at
// open, and the algebra answers the plan — matching, both predicates,
// projection — over the candidate records, in bounded chunks as the consumer
// pulls. prefix is feed.Prefix there, as it is at the mediator.
func (w *Wrapper) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	lookups, err := w.compilePush(plan, params)
	if err != nil {
		return nil, err
	}
	return exec.Candidates(ctx, plan, params, funcs, "records", w.candidates(lookups), w.S.Record)
}

// funcs are the functions a pushed plan may call.
var funcs = map[string]algebra.Func{"prefix": Prefix}
