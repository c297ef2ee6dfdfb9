package mediator

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/yatl"
)

// regSource is a minimal source used to exercise Connect during live
// queries; each instance exports one uniquely named document.
type regSource struct{ name string }

func (s *regSource) Name() string                      { return s.name }
func (s *regSource) Documents() []string               { return []string{s.name + ".doc"} }
func (s *regSource) Fetch(string) (data.Forest, error) { return nil, nil }
func (s *regSource) Push(algebra.Op, map[string]tab.Cell) (*tab.Tab, error) {
	return tab.New("x"), nil
}

// TestRegistrationRacesLiveQueries is the regression test for the
// registration-map data race: Connect/DefineView/RegisterFunc/
// ImportStructure mutating the catalog while queries read it through
// newContext/Compose. Unsynchronized, this fails under -race (catalog map
// writes torn against query-side iteration); with the catalog one immutable
// value a query loads once, registrations linearize against query admission
// and every query still answers correctly — including one that names a view
// twice while a second writer keeps redefining it: both mentions get the
// same definition, never one of each.
func TestRegistrationRacesLiveQueries(t *testing.T) {
	m, _, _ := paperSetup(t)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")

	want, err := m.ExecuteContext(context.Background(), datagen.Q2Src, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	// flip alternates between two definitions whose answers share no row;
	// flipTwice pairs every row of one mention with every row of the other.
	const flipTwice = `MAKE pair[ a: $a, b: $b ] MATCH flip WITH doc[ *f[ t: $a ] ], flip WITH doc[ *f[ t: $b ] ] ;`
	var flips [2]*yatl.Rule
	var flipRows [2][]string
	for i, title := range []string{"Nympheas", "Waterloo Bridge"} {
		flips[i] = &yatl.MustParse(fmt.Sprintf(
			`flip() := MAKE doc[ *f($t) := f[ t: $t ] ] MATCH works WITH works[ *work[ title: $t ] ] WHERE $t = %q ;`, title)).Rules[0]
		if err := m.DefineView(flips[i]); err != nil {
			t.Fatal(err)
		}
		res, err := m.Query(flipTwice)
		if err != nil {
			t.Fatal(err)
		}
		if flipRows[i] = renderRows(res.Tab); len(flipRows[i]) != 1 {
			t.Fatalf("flip as %q paired with itself: %v, want one row", title, flipRows[i])
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.DefineView(flips[i%2]); err != nil {
				t.Errorf("DefineView: %v", err)
				return
			}
		}
	}()

	// Writer: keeps registering new catalog entries — fresh sources, views,
	// functions and structures — as a long-running service's operator would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		model := pattern.NewModel("reg")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Connect(&regSource{name: fmt.Sprintf("reg%d", i)}, nil); err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			m.RegisterFunc(fmt.Sprintf("regfn%d", i), waiswrap.Contains)
			m.ImportStructure(fmt.Sprintf("regdoc%d", i), model, "Works")
			rule := fmt.Sprintf("regview%d() := MAKE r[ t: $t ] MATCH works WITH doc[ *work[ title: $t ] ]", i)
			if err := m.LoadProgram(rule); err != nil {
				t.Errorf("LoadProgram: %v", err)
				return
			}
			_ = m.Describe()
			_ = m.Health()
		}
	}()

	// Readers: live queries against the shared mediator while the catalog
	// churns underneath them. They control the test's duration; the writer
	// stops once they are done.
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 8; i++ {
				res, err := m.ExecuteContext(context.Background(), datagen.Q2Src,
					ExecOptions{Parallelism: 2, Timeout: time.Minute})
				if err != nil {
					t.Errorf("query during registration churn: %v", err)
					return
				}
				if !res.Tab.Equal(want.Tab) {
					t.Errorf("rows diverged during registration churn")
					return
				}
				res, err = m.ExecuteContext(context.Background(), flipTwice, ExecOptions{Parallelism: 2, Timeout: time.Minute})
				if err != nil {
					t.Errorf("twice-bound view during redefinition: %v", err)
					return
				}
				if got := renderRows(res.Tab); !reflect.DeepEqual(got, flipRows[0]) && !reflect.DeepEqual(got, flipRows[1]) {
					t.Errorf("a query naming flip twice saw two definitions: %v (want %v or %v)", got, flipRows[0], flipRows[1])
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestConcurrentSharedMediator drives many concurrent ExecuteContext and
// StreamContext calls through ONE shared Mediator under -race, mixing
// cached and uncached execution, serial and parallel engines, and both
// Q1 and Q2 — every result must be byte-identical to its serial baseline.
func TestConcurrentSharedMediator(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(120))
	m, _, _ := setup(t, w.DB, w.Works)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")

	queries := []string{datagen.Q1Src, datagen.Q2Src}
	want := make([]*tab.Tab, len(queries))
	for i, q := range queries {
		res, err := m.ExecuteContext(context.Background(), q, ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Tab
	}

	const workers = 16
	const iters = 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				opts := ExecOptions{Parallelism: 1 + (g % 4), Timeout: time.Minute}
				if g%2 == 0 {
					m.EnableCache(64) // cached path: shared LRU under contention, swapped under the readers' feet
				}
				var got *tab.Tab
				if (g+i)%3 == 0 {
					// Streamed path: drain the chunk channel into a table.
					s, err := m.StreamContext(context.Background(), queries[qi], opts)
					if err != nil {
						t.Errorf("worker %d: stream: %v", g, err)
						return
					}
					out := tab.New(s.Cols()...)
					for c := range s.Chunks() {
						for _, r := range c.Rows {
							out.AddRow(r)
						}
					}
					if _, err := s.Result(); err != nil {
						t.Errorf("worker %d: stream result: %v", g, err)
						return
					}
					got = out
				} else {
					res, err := m.ExecuteContext(context.Background(), queries[qi], opts)
					if err != nil {
						t.Errorf("worker %d: execute: %v", g, err)
						return
					}
					got = res.Tab
				}
				if !got.Equal(want[qi]) {
					t.Errorf("worker %d iter %d: rows diverge from serial baseline\nwant (%d rows):\n%s\ngot (%d rows):\n%s",
						g, i, want[qi].Len(), want[qi], got.Len(), got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHealthSnapshotConcurrent hammers Health against live queries and
// registrations: the single-lock snapshot must stay coherent (every
// connected source present, no torn map) under -race.
func TestHealthSnapshotConcurrent(t *testing.T) {
	m, _, _ := paperSetup(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := m.ExecuteContext(context.Background(), datagen.Q1Src, ExecOptions{Parallelism: 2}); err != nil {
				t.Errorf("query: %v", err)
			}
		}
		close(stop)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := m.Health()
				for name, sh := range h {
					if sh.State != "closed" && sh.State != "open" && sh.State != "half-open" {
						t.Errorf("source %s: invalid breaker state %q", name, sh.State)
						return
					}
				}
				if len(h) < 2 {
					t.Errorf("health snapshot lost sources: %v", h)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanMapUnderConcurrentQueries drives one mediator's plan map from 8
// goroutines × 50 ExecuteContext calls of Q1, Q2 and their XQuery forms, at
// Parallelism 1 and 4, in-process (the Figure 8 deployment) and over wire
// (the three-family deployment), while a DefineView races them: every run's
// rows and Stats equal a serial run of a freshly planned plan, and after the
// race the redefined view's answer is the one returned.
func TestPlanMapUnderConcurrentQueries(t *testing.T) {
	for name, deploy := range map[string]func(*testing.T) *Mediator{
		"in-process": func(t *testing.T) *Mediator { return figure8Setup(t) },
		"wire": func(t *testing.T) *Mediator {
			m, _ := deployThreeFamilies(t, threeFamilyN)
			if err := m.LoadProgram(datagen.View1Src); err != nil {
				t.Fatal(err)
			}
			return m
		},
	} {
		t.Run(name, func(t *testing.T) {
			m := deploy(t)
			m.CheckInvariants = true
			ctx := context.Background()
			uncached := func(src string) *Result {
				t.Helper()
				res, err := m.ExecutePlan(ctx, planUncached(t, m, m.cat.Load(), src), ExecOptions{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			const latest = `MAKE $a MATCH latest WITH doc[ *f[ t: $a ] ]`
			define := func(field string) {
				t.Helper()
				if err := m.DefineView(&yatl.MustParse(fmt.Sprintf(
					`latest() := MAKE doc[ *f($t) := f[ t: $t ] ] MATCH works WITH works[ *work[ %s: $t ] ] ;`, field)).Rules[0]); err != nil {
					t.Fatal(err)
				}
			}
			define("title")
			before := renderRows(uncached(latest).Tab)

			texts := []string{datagen.Q1Src, datagen.Q2Src, datagen.Q1XQuerySrc, datagen.Q2XQuerySrc}
			want := make([]*Result, len(texts))
			for i, src := range texts {
				want[i] = uncached(src)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					opts := ExecOptions{Parallelism: 1 + 3*(g%2), Timeout: time.Minute}
					for i := 0; i < 50; i++ {
						if g == 0 && i == 25 {
							define("artist")
						}
						qi := (g + i) % len(texts)
						res, err := m.ExecuteContext(ctx, texts[qi], opts)
						if err != nil {
							t.Errorf("worker %d call %d: %v", g, i, err)
							return
						}
						if !reflect.DeepEqual(renderRows(res.Tab), renderRows(want[qi].Tab)) || res.Stats != want[qi].Stats {
							t.Errorf("worker %d call %d (%s): rows %v stats %+v, want %v %+v",
								g, i, texts[qi], renderRows(res.Tab), res.Stats, renderRows(want[qi].Tab), want[qi].Stats)
							return
						}
					}
				}(g)
			}
			wg.Wait()

			res, err := m.ExecuteContext(ctx, latest, ExecOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := renderRows(res.Tab)
			if !reflect.DeepEqual(got, renderRows(uncached(latest).Tab)) || reflect.DeepEqual(got, before) {
				t.Errorf("after the redefinition the view answers %v; want its new answer, not the old %v", got, before)
			}
		})
	}
}
