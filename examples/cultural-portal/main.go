// Cultural portal: the Web-portal scenario of the paper's introduction at
// realistic scale. A generated trading database (O₂) and museum catalog
// (XML-Wais) are integrated behind view1; the example evaluates Q1 and Q2
// under the naive and the optimized strategies and reports answer sizes,
// data transfer and source work — the quantities Section 5.3 argues
// capability-based rewriting improves.
//
//	go run ./examples/cultural-portal [-n 2000]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	yat "repro"
	"repro/internal/datagen"
	"repro/internal/mediator"
)

func main() {
	n := flag.Int("n", 2000, "number of artifacts in the trading database")
	flag.Parse()
	if err := run(*n); err != nil {
		fmt.Fprintf(os.Stderr, "cultural-portal: %v\n", err)
		os.Exit(1)
	}
}

func run(n int) error {
	w := datagen.Generate(datagen.DefaultParams(n))
	med, ow, ww, err := yat.NewCulturalMediator(w.DB, w.Works)
	if err != nil {
		return err
	}
	fmt.Printf("trading database: %d artifacts, %d persons; museum catalog: %d works\n\n",
		w.DB.ExtentSize("artifacts"), w.DB.ExtentSize("persons"), len(w.Works))

	queries := []struct {
		name, src, truth string
		want             int
	}{
		{"Q1 (artifacts created at Giverny)", yat.Q1, "generator ground truth", len(w.GivernyTitles)},
		{"Q2 (impressionist artworks under 200,000)", yat.Q2, "generator ground truth", len(w.Q2Titles)},
	}
	for _, q := range queries {
		fmt.Printf("== %s ==\n", q.name)
		naive, nd, err := timed(func() (*mediator.Result, error) { return yat.QueryNaive(med, q.src) })
		if err != nil {
			return err
		}
		opt, od, err := timed(func() (*mediator.Result, error) { return med.Query(q.src) })
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %8s %10s %9s %8s %8s\n", "strategy", "rows", "time", "bytes", "fetches", "pushes")
		fmt.Printf("%-10s %8d %10s %9d %8d %8d\n", "naive", naive.Tab.Len(), nd.Round(time.Microsecond),
			naive.Stats.BytesShipped, naive.Stats.SourceFetches, naive.Stats.SourcePushes)
		fmt.Printf("%-10s %8d %10s %9d %8d %8d\n", "optimized", opt.Tab.Len(), od.Round(time.Microsecond),
			opt.Stats.BytesShipped, opt.Stats.SourceFetches, opt.Stats.SourcePushes)
		if naive.Tab.Len() != q.want || !naive.Tab.EqualUnordered(opt.Tab) {
			return fmt.Errorf("%s: results disagree (naive %d, optimized %d, %s %d)",
				q.name, naive.Tab.Len(), opt.Tab.Len(), q.truth, q.want)
		}
		fmt.Printf("both strategies agree with the %s (%d rows)\n\n", q.truth, q.want)
	}
	fmt.Printf("last OQL pushed to the trading database:\n  %s\n",
		oneLine(ow.LastOQL))
	fmt.Printf("last full-text search pushed to the museum catalog: %q (%d searches run)\n",
		ww.LastSearch, ww.E.SearchesRun)
	return nil
}

func timed(fn func() (*mediator.Result, error)) (*mediator.Result, time.Duration, error) {
	start := time.Now()
	res, err := fn()
	return res, time.Since(start), err
}

func oneLine(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, ' ')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}
