// Quickstart: the complete Section 2 application in one process.
//
// It builds the paper's O₂ trading database and XML-Wais artworks, wires
// them behind a mediator, materializes the integrated artworks view, and
// runs query Q1 ("what are the artifacts created at Giverny?") both naively
// and optimized, printing the plans so the Figure 8 rewriting is visible.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	yat "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	med, _, _, err := yat.NewCulturalMediator(yat.PaperDB(), yat.PaperWorks())
	if err != nil {
		return err
	}

	fmt.Println("== Integrated artworks view (view1.yat) ==")
	view, err := med.Materialize("artworks")
	if err != nil {
		return err
	}
	for _, row := range view.Rows {
		fmt.Println(yat.SerializeXML(row[0].Tree))
	}

	fmt.Println("== Q1: artifacts created at Giverny ==")
	naive, err := yat.QueryNaive(med, yat.Q1)
	if err != nil {
		return err
	}
	opt, err := med.Query(yat.Q1)
	if err != nil {
		return err
	}
	fmt.Println("naive plan (materialize the view, then query it):")
	fmt.Print(indent(naive.Plan))
	fmt.Println("optimized plan (Bind–Tree eliminated, O₂ branch pruned, pushed to Wais):")
	fmt.Print(indent(opt.Plan))
	fmt.Println("answer:")
	fmt.Print(opt.Tab)
	fmt.Printf("transfer: naive shipped %d bytes in %d fetches; optimized %d bytes in %d pushes\n",
		naive.Stats.BytesShipped, naive.Stats.SourceFetches,
		opt.Stats.BytesShipped, opt.Stats.SourcePushes)
	return nil
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "  " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
