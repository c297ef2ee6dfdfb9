package main

import (
	"testing"
	"time"
)

func sp(id, parent int64, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Op: 1, Name: name, StartNS: start, EndNS: end}
}

// Self time subtracts the union of the children, not their sum: two parallel
// children covering the same stretch are subtracted once.
func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, spanClientOp, 0, 100),
		sp(2, 1, spanSource, 10, 50), // overlaps 3 on [30,50]
		sp(3, 1, spanSource, 30, 70),
		sp(4, 1, spanSource, 80, 90),  // disjoint
		sp(5, 2, spanWrapper, 15, 45), // nested in 2: must not count against 1
		sp(6, 1, spanSource, 95, 120), // runs past its parent: clipped
		sp(7, 1, spanSource, 40, 45),  // inside both 2 and 3
	}
	self := selfTimes(spans)
	// children of 1 cover [10,70] + [80,90] + [95,100] = 75
	if got := self[1]; got != 25 {
		t.Errorf("self time of the operation = %v, want 25ns", got)
	}
	if got := self[2]; got != 10 {
		t.Errorf("self time of a call with one nested child = %v, want 10ns", got)
	}
	if got := self[3]; got != 40 {
		t.Errorf("self time of a leaf = %v, want its duration", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Errorf("covered(nothing) = %v", got)
	}
}

// A server-side call is parented to the tightest mediator-side call on the
// same source, in the same operation, that contains it in time.
func TestLinkPicksTightestContainingCallOnSameSource(t *testing.T) {
	call := func(id int64, name, source string, start, end int64) span {
		s := sp(id, 1, name, start, end)
		s.Attrs = map[string]string{"source": source}
		if name == spanWrapper {
			s.Parent = -1
		}
		return s
	}
	spans := []span{
		sp(1, 0, spanClientOp, 0, 1000),
		call(2, spanSource, "o2artifact", 100, 600),
		call(3, spanSource, "o2artifact", 200, 500), // parallel push, tighter
		call(4, spanSource, "xmlartwork", 0, 1000),  // other source: never a parent
		call(5, spanWrapper, "o2artifact", 250, 450),
		call(6, spanWrapper, "o2artifact", 120, 580), // only 2 contains it
		call(7, spanWrapper, "o2artifact", 700, 800), // nothing contains it
	}
	link(spans)
	for id, want := range map[int64]int64{5: 3, 6: 2, 7: 1} {
		for _, s := range spans {
			if s.ID == id && s.Parent != want {
				t.Errorf("wrapper call %d parented to %d, want %d", id, s.Parent, want)
			}
		}
	}
}

// The client side is a stack: begin nests under the innermost open span and
// a decorator-side call started meanwhile is attributed to it.
func TestRecorderNestsAndAttributes(t *testing.T) {
	r := newRecorder()
	op := r.begin(spanClientOp, nil)
	stage := r.begin(spanStream, nil)
	p := r.start()
	r.finish(p, spanSource, false, map[string]string{"source": "s"})
	stage.end()
	op.end()
	late := r.start() // between operations: belongs to none
	r.finish(late, spanSource, false, nil)
	spans := r.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans[:3] {
		byName[s.Name] = s
	}
	root, st, call := byName[spanClientOp], byName[spanStream], byName[spanSource]
	if root.Parent != 0 || root.Op != root.ID {
		t.Errorf("root span: parent %d op %d", root.Parent, root.Op)
	}
	if st.Parent != root.ID || st.Op != root.ID {
		t.Errorf("stage span: parent %d op %d, want %d", st.Parent, st.Op, root.ID)
	}
	if call.Parent != st.ID || call.Op != root.ID {
		t.Errorf("source call: parent %d op %d, want %d and %d", call.Parent, call.Op, st.ID, root.ID)
	}
	if spans[3].Op != 0 || spans[3].Parent != 0 {
		t.Errorf("call between operations attributed to op %d parent %d", spans[3].Op, spans[3].Parent)
	}
	if root.dur() < st.dur() || st.dur() <= 0 || time.Duration(call.EndNS) > time.Duration(st.EndNS) {
		t.Errorf("intervals do not nest: %+v %+v %+v", root, st, call)
	}
}
