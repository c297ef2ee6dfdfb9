package frontdoor_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/frontdoor"
	"repro/internal/mediator"
	"repro/internal/o2wrap"
	"repro/internal/obs"
	"repro/internal/tab"
	"repro/internal/waiswrap"
)

// paperMediator builds the Figure 2 deployment in-process, with the
// Figure 8 assumptions declared.
func paperMediator(t *testing.T) *mediator.Mediator {
	t.Helper()
	m := paperMediatorOver(t, func(ow *o2wrap.Wrapper) algebra.Source { return ow })
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")
	return m
}

// paperMediatorOver builds the Figure 2 deployment with the O₂ wrapper
// behind the source o2 makes of it. Without the Figure 8 assumptions, Q1
// reaches that source.
func paperMediatorOver(t *testing.T, o2 func(*o2wrap.Wrapper) algebra.Source) *mediator.Mediator {
	t.Helper()
	m := mediator.New()
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
	if err := m.Connect(o2(ow), ow.ExportInterface()); err != nil {
		t.Fatal(err)
	}
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks()))
	if err := m.Connect(ww, ww.ExportInterface()); err != nil {
		t.Fatal(err)
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		t.Fatal(err)
	}
	return m
}

// ndLine is any NDJSON response line.
type ndLine struct {
	Cols  []string `json:"cols"`
	Row   []string `json:"row"`
	Done  bool     `json:"done"`
	Rows  int      `json:"rows"`
	Error string   `json:"error"`
	Code  string   `json:"code"`
}

// postQuery runs one query through the handler and parses the NDJSON.
func postQuery(t *testing.T, url, tenant, query string) (int, []ndLine) {
	t.Helper()
	return postRequest(t, url, tenant, frontdoor.QueryRequest{Query: query})
}

// postRequest posts one request body through the handler and parses the
// NDJSON.
func postRequest(t *testing.T, url, tenant string, qr frontdoor.QueryRequest) (int, []ndLine) {
	t.Helper()
	body, _ := json.Marshal(qr)
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []ndLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var l ndLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	return resp.StatusCode, lines
}

func TestQueryStreamsNDJSON(t *testing.T) {
	d := frontdoor.New(paperMediator(t), frontdoor.Options{})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	status, lines := postQuery(t, srv.URL, "acme", datagen.Q1Src)
	if status != http.StatusOK {
		t.Fatalf("status = %d, lines = %+v", status, lines)
	}
	if len(lines) < 3 {
		t.Fatalf("want cols + rows + done, got %+v", lines)
	}
	if len(lines[0].Cols) == 0 {
		t.Fatalf("first line must carry columns: %+v", lines[0])
	}
	last := lines[len(lines)-1]
	if !last.Done || last.Error != "" {
		t.Fatalf("terminal line: %+v", last)
	}
	var rows int
	for _, l := range lines[1 : len(lines)-1] {
		if l.Row == nil {
			t.Fatalf("mid line without row: %+v", l)
		}
		rows++
	}
	if rows != last.Rows || rows != 1 {
		t.Fatalf("Q1 rows = %d, terminal says %d (want 1)", rows, last.Rows)
	}
	if !strings.Contains(strings.Join(lines[1].Row, " "), "Nympheas") {
		t.Fatalf("Q1 row = %v", lines[1].Row)
	}
}

// stalled is an O₂ wrapper that has stopped answering: every call blocks
// until the query's context ends.
type stalled struct{ *o2wrap.Wrapper }

func (stalled) FetchStream(ctx context.Context, _ string) (algebra.ForestCursor, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (stalled) PushStream(ctx context.Context, _ algebra.Op, _ map[string]tab.Cell) (tab.Cursor, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (stalled) PushBatchContext(ctx context.Context, _ algebra.Op, _ []map[string]tab.Cell) ([]*tab.Tab, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestExecTimeoutCapsQueries pins the door's deadline to Exec.Timeout: a
// query over a stalled wrapper ends with a deadline error once the
// configured 50 ms pass — not after the 30 s the door falls back to when
// Exec.Timeout is zero — and a request asking for more time gets no more.
func TestExecTimeoutCapsQueries(t *testing.T) {
	m := paperMediatorOver(t, func(ow *o2wrap.Wrapper) algebra.Source { return stalled{ow} })
	d := frontdoor.New(m, frontdoor.Options{Exec: mediator.ExecOptions{Parallelism: 1, Timeout: 50 * time.Millisecond}})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for _, ms := range []int{0, 60_000} {
		start := time.Now()
		_, lines := postRequest(t, srv.URL, "acme", frontdoor.QueryRequest{Query: datagen.Q1Src, TimeoutMS: ms})
		elapsed := time.Since(start)
		if len(lines) == 0 {
			t.Fatalf("timeout_ms %d: empty response", ms)
		}
		if last := lines[len(lines)-1]; !strings.Contains(last.Error, context.DeadlineExceeded.Error()) {
			t.Errorf("timeout_ms %d: terminal line %+v, want a deadline error", ms, last)
		}
		if elapsed > 5*time.Second {
			t.Errorf("timeout_ms %d: the query ran %v under a 50ms cap", ms, elapsed)
		}
	}
}

func TestQueryErrorIsStructured(t *testing.T) {
	d := frontdoor.New(paperMediator(t), frontdoor.Options{})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	status, lines := postQuery(t, srv.URL, "acme", "THIS IS NOT A QUERY")
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d", status)
	}
	if len(lines) != 1 || lines[0].Code != "query_error" || lines[0].Error == "" {
		t.Fatalf("error body: %+v", lines)
	}
}

// TestQueryBodyBound pins both sides of the request-size bound: a body of
// exactly 1 MiB is decoded and judged as a query, one byte more is refused
// with a typed 413 before admission.
func TestQueryBodyBound(t *testing.T) {
	d := frontdoor.New(paperMediator(t), frontdoor.Options{})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	const bound = 1 << 20
	envelope := len(`{"query":""}`)
	for _, tc := range []struct {
		name   string
		size   int
		status int
		code   string
	}{
		{"at the bound", bound, http.StatusBadRequest, "query_error"},
		{"one over", bound + 1, http.StatusRequestEntityTooLarge, "query_too_large"},
	} {
		status, lines := postQuery(t, srv.URL, "acme", strings.Repeat("x", tc.size-envelope))
		if status != tc.status || len(lines) != 1 || lines[0].Code != tc.code {
			t.Errorf("%s (%d bytes): status %d, body %+v; want %d %s", tc.name, tc.size, status, lines, tc.status, tc.code)
		}
	}
}

func TestAdmissionLimits(t *testing.T) {
	d := frontdoor.New(paperMediator(t), frontdoor.Options{
		Tenants: map[string]frontdoor.Limits{
			"cap1":  {MaxConcurrent: 1, QueueDepth: -1},
			"timed": {MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 30 * time.Millisecond},
			"slow":  {MaxConcurrent: 4, RatePerSec: 0.001, Burst: 1},
		},
	})
	ctx := context.Background()

	// Concurrency cap with no queue: second admission sheds immediately.
	rel, err := d.Admit(ctx, "cap1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Admit(ctx, "cap1")
	var shed *frontdoor.ShedError
	if !errors.As(err, &shed) || shed.Code != frontdoor.ShedQueueFull {
		t.Fatalf("want queue_full, got %v", err)
	}
	rel()
	if rel2, err := d.Admit(ctx, "cap1"); err != nil {
		t.Fatalf("slot not released: %v", err)
	} else {
		rel2()
	}

	// Bounded queue with deadline: a queued admission times out.
	relT, err := d.Admit(ctx, "timed")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = d.Admit(ctx, "timed")
	if !errors.As(err, &shed) || shed.Code != frontdoor.ShedQueueTimeout {
		t.Fatalf("want queue_timeout, got %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("queue timeout fired too early")
	}
	relT()

	// Token bucket: burst of 1, negligible refill — second call sheds.
	relS, err := d.Admit(ctx, "slow")
	if err != nil {
		t.Fatal(err)
	}
	relS()
	_, err = d.Admit(ctx, "slow")
	if !errors.As(err, &shed) || shed.Code != frontdoor.ShedRateLimited {
		t.Fatalf("want rate_limited, got %v", err)
	}

	// Isolation: all that shedding never touched another tenant.
	relB, err := d.Admit(ctx, "bystander")
	if err != nil {
		t.Fatalf("bystander tenant affected: %v", err)
	}
	relB()
}

func TestShedOverHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	d := frontdoor.New(paperMediator(t), frontdoor.Options{
		Tenants: map[string]frontdoor.Limits{
			"full":    {MaxConcurrent: 1, QueueDepth: -1},
			"limited": {MaxConcurrent: 4, RatePerSec: 0.001, Burst: 1},
		},
		Metrics: reg,
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Hold tenant "full"'s only slot, then hit the API.
	rel, err := d.Admit(context.Background(), "full")
	if err != nil {
		t.Fatal(err)
	}
	status, lines := postQuery(t, srv.URL, "full", datagen.Q1Src)
	rel()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("queue_full status = %d", status)
	}
	if len(lines) != 1 || lines[0].Code != frontdoor.ShedQueueFull {
		t.Fatalf("queue_full body: %+v", lines)
	}

	// Exhaust "limited"'s burst, then hit the API: 429.
	if status, _ := postQuery(t, srv.URL, "limited", datagen.Q1Src); status != http.StatusOK {
		t.Fatalf("burst query status = %d", status)
	}
	status, lines = postQuery(t, srv.URL, "limited", datagen.Q1Src)
	if status != http.StatusTooManyRequests {
		t.Fatalf("rate_limited status = %d", status)
	}
	if len(lines) != 1 || lines[0].Code != frontdoor.ShedRateLimited {
		t.Fatalf("rate_limited body: %+v", lines)
	}

	// The sheds are visible per tenant in the metrics registry.
	if reg.TenantCounter("fd_shed_queue_full", "full").Value() == 0 {
		t.Error("queue_full shed not counted")
	}
	if reg.TenantCounter("fd_shed_rate", "limited").Value() == 0 {
		t.Error("rate shed not counted")
	}
}

func TestHealthEndpoint(t *testing.T) {
	d := frontdoor.New(paperMediator(t), frontdoor.Options{})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		OK      bool                             `json:"ok"`
		Sources map[string]mediator.SourceHealth `json:"sources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.OK || len(body.Sources) != 2 {
		t.Fatalf("healthz: %+v", body)
	}
}

// TestConcurrentTenantsOverHTTP drives many tenants through the full HTTP
// path at once: every admitted query must stream the same correct result.
func TestConcurrentTenantsOverHTTP(t *testing.T) {
	d := frontdoor.New(paperMediator(t), frontdoor.Options{
		Limits: frontdoor.Limits{MaxConcurrent: 8, QueueDepth: 64, QueueTimeout: 30 * time.Second},
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := string(rune('a' + g%4))
			status, lines := postQuery(t, srv.URL, tenant, datagen.Q1Src)
			if status != http.StatusOK {
				t.Errorf("tenant %s: status %d: %+v", tenant, status, lines)
				return
			}
			last := lines[len(lines)-1]
			if !last.Done || last.Rows != 1 {
				t.Errorf("tenant %s: terminal %+v", tenant, last)
			}
		}(g)
	}
	wg.Wait()
}
