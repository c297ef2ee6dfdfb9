package mediator

import (
	"context"
	"testing"
	"time"

	"repro/internal/datagen"
)

// TestExecuteContextParallelDeterminism is the engine's end-to-end
// determinism property at the query level: for the whole randomized query
// family (including Tree-constructing MAKE heads, whose Skolem mint order is
// observable), an 8-worker execution returns exactly the rows of the serial
// one, in the same order, with identical source accounting.
func TestExecuteContextParallelDeterminism(t *testing.T) {
	w := datagen.Generate(datagen.DefaultParams(120))
	m, _, _ := setup(t, w.DB, w.Works)
	m.Assume("artifacts", "works", "$y > 1800")
	m.Assume("persons", "works", "$y > 1800")

	ctx := context.Background()
	for i, query := range randomArtworkQueries(40) {
		serial, err := m.ExecuteContext(ctx, query, ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("query %d (serial): %v\n%s", i, err, query)
		}
		par, err := m.ExecuteContext(ctx, query, ExecOptions{Parallelism: 8, Timeout: time.Minute})
		if err != nil {
			t.Fatalf("query %d (parallel): %v\n%s", i, err, query)
		}
		if !serial.Tab.Equal(par.Tab) {
			t.Errorf("query %d: parallel diverges from serial\nserial (%d rows):\n%s\nparallel (%d rows):\n%s\nquery:\n%s",
				i, serial.Tab.Len(), serial.Tab, par.Tab.Len(), par.Tab, query)
		}
		if serial.Stats.SourcePushes != par.Stats.SourcePushes ||
			serial.Stats.SourceFetches != par.Stats.SourceFetches {
			t.Errorf("query %d: stats diverge: serial %+v parallel %+v", i, serial.Stats, par.Stats)
		}
	}
}
