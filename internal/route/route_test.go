// Tests live in an external package so the integration test can stand up a
// real mediator over replicated wire clients without import gymnastics.
package route_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/leakcheck"
	"repro/internal/mediator"
	"repro/internal/o2wrap"
	"repro/internal/route"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/wire"
)

// errReset is a transport-level failure: wire.IsRetryable reports true for
// it, so it trips replica breakers and triggers failover.
var errReset = &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer")}

// fakeRep is a controllable in-process replica.
type fakeRep struct {
	name  string
	docs  []string
	delay time.Duration
	calls atomic.Int64
	fail  atomic.Pointer[error]
}

func newFakeRep(name string) *fakeRep {
	return &fakeRep{name: name, docs: []string{"doc"}}
}

func (s *fakeRep) setFail(err error) { s.fail.Store(&err) }

func (s *fakeRep) failErr() error {
	if p := s.fail.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *fakeRep) Name() string        { return s.name }
func (s *fakeRep) Documents() []string { return append([]string(nil), s.docs...) }

func (s *fakeRep) Fetch(doc string) (data.Forest, error) {
	s.calls.Add(1)
	if err := s.failErr(); err != nil {
		return nil, err
	}
	return data.Forest{}, nil
}

func (s *fakeRep) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	s.calls.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if err := s.failErr(); err != nil {
		return nil, err
	}
	t := tab.New("who")
	t.AddRow([]tab.Cell{tab.AtomCell(data.String(s.name))})
	return t, nil
}

func mustRoute(t *testing.T, reps []algebra.Source) *route.Replicated {
	t.Helper()
	r, err := route.New("src", reps, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustRouteBreakers is mustRoute with the breakers' thresholds given.
func mustRouteBreakers(t *testing.T, reps []algebra.Source, threshold int, cooldown time.Duration) *route.Replicated {
	t.Helper()
	r, err := route.NewWithBreakers("src", reps, threshold, cooldown)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouteRejectsMismatchedDocSets(t *testing.T) {
	a, b := newFakeRep("a"), newFakeRep("b")
	b.docs = []string{"other"}
	if _, err := route.New("src", []algebra.Source{a, b}, route.Options{}); err == nil {
		t.Fatal("replicas exporting different documents must be rejected")
	}
	if _, err := route.New("src", nil, route.Options{}); err == nil {
		t.Fatal("empty replica set must be rejected")
	}
}

// TestRouteFailoverAndEviction: a replica failing at the transport level is
// failed over transparently, and after the threshold of consecutive
// failures its breaker opens — subsequent calls stop touching it at all.
func TestRouteFailoverAndEviction(t *testing.T) {
	leakcheck.Arm(t)
	bad, good := newFakeRep("bad"), newFakeRep("good")
	bad.setFail(errReset)
	r := mustRouteBreakers(t, []algebra.Source{bad, good}, 3, time.Minute)

	for i := 0; i < 12; i++ {
		res, err := r.Push(nil, nil)
		if err != nil {
			t.Fatalf("call %d: failover did not mask the bad replica: %v", i, err)
		}
		if who, _ := res.Rows[0][0].AsAtom(); who.S != "good" {
			t.Fatalf("call %d answered by %q", i, who.S)
		}
	}

	var badHealth *route.ReplicaHealth
	for _, h := range r.Health() {
		if h.ID == 0 {
			hh := h
			badHealth = &hh
		}
	}
	if badHealth == nil || badHealth.State != "open" {
		t.Fatalf("bad replica not evicted: %+v", r.Health())
	}

	before := bad.calls.Load()
	for i := 0; i < 10; i++ {
		if _, err := r.Push(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if after := bad.calls.Load(); after != before {
		t.Fatalf("evicted replica still receives calls: %d -> %d", before, after)
	}
}

// TestRouteSemanticErrorSettles: a server-reported error is an answer, not
// an outage — it returns to the caller from the first replica tried, with
// no failover and no breaker damage.
func TestRouteSemanticErrorSettles(t *testing.T) {
	a, b := newFakeRep("a"), newFakeRep("b")
	semantic := error(&wire.RemoteError{Msg: "unknown document"})
	a.setFail(semantic)
	b.setFail(semantic)
	r := mustRoute(t, []algebra.Source{a, b})

	_, err := r.Push(nil, nil)
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want the RemoteError back, got %v", err)
	}
	if total := a.calls.Load() + b.calls.Load(); total != 1 {
		t.Fatalf("semantic error must not fail over: %d attempts", total)
	}
	for _, h := range r.Health() {
		if h.State != "closed" {
			t.Fatalf("semantic error damaged breaker: %+v", h)
		}
	}
}

// TestRouteAllDownThenRecover: with every replica failing the call reports
// the logical source unavailable around a transport-classified error (so
// AllowPartial degrades around it and a router stacked above counts it as
// an outage), fails fast while breakers are open, and re-admits a replica
// through a half-open probe after the cooldown.
func TestRouteAllDownThenRecover(t *testing.T) {
	leakcheck.Arm(t)
	a, b := newFakeRep("a"), newFakeRep("b")
	a.setFail(errReset)
	b.setFail(errReset)
	r := mustRouteBreakers(t, []algebra.Source{a, b}, 1, 50*time.Millisecond)

	_, err := r.Push(nil, nil)
	if err == nil {
		t.Fatal("want failure with every replica down")
	}
	if !wire.IsRetryable(err) {
		t.Fatalf("all-replicas-down error must classify as transport-level, got %v", err)
	}
	var ue *algebra.UnavailableError
	if !errors.As(err, &ue) || ue.Source != "src" {
		t.Fatalf("all-replicas-down error must mark source src unavailable, got %v", err)
	}

	// Breakers now open: the next call is refused without touching either
	// replica, and still classifies as a transport outage.
	calls := a.calls.Load() + b.calls.Load()
	_, err = r.Push(nil, nil)
	if err == nil || !wire.IsRetryable(err) {
		t.Fatalf("fail-fast error misclassified: %v", err)
	}
	if now := a.calls.Load() + b.calls.Load(); now != calls {
		t.Fatalf("open breakers still let calls through: %d -> %d", calls, now)
	}

	// One replica recovers; the half-open probe finds it.
	a.setFail(nil)
	time.Sleep(60 * time.Millisecond)
	res, err := r.Push(nil, nil)
	if err != nil {
		t.Fatalf("probe did not re-admit recovered replica: %v", err)
	}
	if who, _ := res.Rows[0][0].AsAtom(); who.S != "a" {
		t.Fatalf("recovered call answered by %q", who.S)
	}
}

// breakingStream is a replica whose push streams deliver one chunk and then
// lose the connection.
type breakingStream struct{ *fakeRep }

func (s breakingStream) PushStream(context.Context, algebra.Op, map[string]tab.Cell) (tab.Cursor, error) {
	sent := false
	return &tab.FuncCursor{Columns: []string{"who"}, NextFn: func() (*tab.Tab, error) {
		if sent {
			return nil, errReset
		}
		sent = true
		return tab.New("who"), nil
	}}, nil
}

// TestRouteStreamEnds: a stream read to its clean end costs the replica
// nothing — three that end back to back must not add up to an eviction —
// while a connection lost mid-stream is charged to the serving replica and
// reaches the caller marked unavailable, with no failover (rows already
// delivered cannot be replayed). Either way the inflight slot comes back.
func TestRouteStreamEnds(t *testing.T) {
	rep := newFakeRep("a")
	r := mustRoute(t, []algebra.Source{rep})
	var open []tab.Cursor
	for i := 0; i < 3; i++ {
		cur, err := r.PushStream(context.Background(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, cur)
	}
	for _, cur := range open {
		if _, err := tab.Drain(cur); err != nil {
			t.Fatal(err)
		}
	}
	if h := r.Health()[0]; h.State != "closed" || h.Failures != 0 || h.LastErr != "" || h.Inflight != 0 {
		t.Fatalf("three clean stream ends left the replica at %+v", h)
	}

	r = mustRoute(t, []algebra.Source{breakingStream{rep}})
	cur, err := r.PushStream(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = cur.Next()
	var ue *algebra.UnavailableError
	if !errors.As(err, &ue) || ue.Source != "src" || !errors.Is(err, errReset) {
		t.Fatalf("mid-stream hang-up = %v, want source src unavailable around the reset", err)
	}
	cur.Close()
	if h := r.Health()[0]; h.Failures != 1 || h.Inflight != 0 {
		t.Fatalf("mid-stream hang-up left the replica at %+v, want one failure and no open stream", h)
	}
}

// TestRouteSpreadsLoad: concurrent calls against slow replicas land on
// both of them — least-loaded selection with rotating ties does not pin a
// single replica.
func TestRouteSpreadsLoad(t *testing.T) {
	a, b := newFakeRep("a"), newFakeRep("b")
	a.delay, b.delay = 10*time.Millisecond, 10*time.Millisecond
	r := mustRoute(t, []algebra.Source{a, b})

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Push(nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if a.calls.Load() == 0 || b.calls.Load() == 0 {
		t.Fatalf("load pinned to one replica: a=%d b=%d", a.calls.Load(), b.calls.Load())
	}
}

// trackingListener records accepted connections so the test can kill a
// wrapper process outright — listener and live connections both.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// deployO2Replica serves one O₂ wrapper replica over TCP and returns its
// server plus a kill switch.
func deployO2Replica(t *testing.T, db *datagen.Workload) (*wire.Server, func()) {
	t.Helper()
	ow := o2wrap.New("o2artifact", db.DB)
	schema := ow.ExportSchema()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackingListener{Listener: ln}
	srv := wire.Serve(tl, wire.Exported{
		Source:    ow,
		Interface: ow.ExportInterface(),
		Structures: map[string]wire.StructureRef{
			"artifacts": {Model: schema, Pattern: "Artifact"},
			"persons":   {Model: schema, Pattern: "Person"},
		},
	})
	t.Cleanup(srv.Close)
	return srv, tl.kill
}

// TestReplicaKillMidLoad is the paper-deployment failover test: a mediator
// runs Q2 continuously against an O₂ source backed by two replica wrapper
// processes; one replica is killed mid-load. Every query must keep
// answering (byte-identical to the serial baseline) and the dead replica
// must be evicted from routing while the logical source stays healthy.
func TestReplicaKillMidLoad(t *testing.T) {
	idle := leakcheck.Arm(t)
	w := datagen.Generate(datagen.DefaultParams(60))

	srv0, kill0 := deployO2Replica(t, w)
	srv1, _ := deployO2Replica(t, w)

	var reps []algebra.Source
	for _, addr := range []string{srv0.Addr(), srv1.Addr()} {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		reps = append(reps, c)
	}
	rt, err := route.NewWithBreakers("o2artifact", reps, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	m := mediator.New()
	iface, err := reps[0].(*wire.Client).ImportInterface()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Connect(rt, iface); err != nil {
		t.Fatal(err)
	}
	sts, err := reps[0].(*wire.Client).ImportStructures()
	if err != nil {
		t.Fatal(err)
	}
	for doc, ref := range sts {
		m.ImportStructure(doc, ref.Model, ref.Pattern)
	}

	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	if err := m.Connect(ww, ww.ExportInterface()); err != nil {
		t.Fatal(err)
	}
	m.ImportStructure("works", ww.ExportStructure(), "Works")
	m.RegisterFunc("contains", waiswrap.Contains)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		t.Fatal(err)
	}
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")

	want, err := m.ExecuteContext(context.Background(), datagen.Q2Src, mediator.ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	var killOnce sync.Once
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if g == 0 && i == 2 {
					killOnce.Do(kill0)
				}
				res, err := m.ExecuteContext(context.Background(), datagen.Q2Src,
					mediator.ExecOptions{Parallelism: 2, Timeout: time.Minute})
				if err != nil {
					t.Errorf("worker %d iter %d: query failed across replica kill: %v", g, i, err)
					return
				}
				if !res.Tab.Equal(want.Tab) {
					t.Errorf("worker %d iter %d: rows diverged after replica kill", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Failed-over and abandoned requests included, every replica client's
	// request slots are free again once the load has stopped.
	for _, rep := range reps {
		idle(rep.(*wire.Client))
	}

	health := rt.Health()
	var dead, live int
	for _, h := range health {
		switch {
		case h.Addr == srv0.Addr() && h.State == "open":
			dead++
		case h.Addr == srv1.Addr() && h.State == "closed":
			live++
		}
	}
	if dead != 1 || live != 1 {
		t.Fatalf("replica census after kill: want dead=1 live=1, got %+v", health)
	}
	if sh := m.Health()["o2artifact"]; sh.State != "closed" {
		t.Fatalf("logical source must stay healthy while a replica is down: %+v", sh)
	}
}
