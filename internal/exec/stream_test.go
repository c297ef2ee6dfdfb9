package exec_test

// Cursor behaviour over live wire wrappers: chunks surface before the stream
// ends, and an abandoned cursor leaves the pinned connection reusable. The
// chunked framing, the conn pinning and the pull-driven wrapper calls all run
// under -race.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/tab"
)

func TestStreamFirstChunkBeforeEOF(t *testing.T) {
	// Pipelining, not batch-then-chunk: the first chunk of a multi-chunk
	// result must be available from the cursor before the stream ends.
	w := datagen.Generate(datagen.DefaultParams(400))
	ctx := serveWrappers(t, w)
	c := *ctx
	c.Stats = &algebra.Stats{}
	cur, err := exec.New(exec.Options{Parallelism: 1}).Stream(context.Background(), o2TitlePrice(), &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || first.Len() > tab.DefaultStreamChunk {
		t.Fatalf("first chunk has %d rows, want 1..%d", first.Len(), tab.DefaultStreamChunk)
	}
	rest, err := tab.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if rest.Len() == 0 {
		t.Fatalf("whole result fit one chunk (%d rows); fixture too small", first.Len())
	}
}

func TestStreamCloseEarlyReleasesPipeline(t *testing.T) {
	// Abandoning a cursor mid-stream must not wedge anything: a later query
	// on the same wire clients still works (the pinned stream conn was
	// discarded or released, not leaked in a bad state).
	w := datagen.Generate(datagen.DefaultParams(400))
	ctx := serveWrappers(t, w)
	c := *ctx
	c.Stats = &algebra.Stats{}
	cur, err := exec.New(exec.Options{Parallelism: 1}).Stream(context.Background(), o2TitlePrice(), &c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := *ctx
	c2.Stats = &algebra.Stats{}
	res, err := exec.New(exec.Options{Parallelism: 1}).Run(context.Background(), o2TitlePrice(), &c2)
	if err != nil {
		t.Fatalf("query after abandoned stream: %v", err)
	}
	if res.Len() == 0 {
		t.Fatal("query after abandoned stream returned no rows")
	}
}

func TestTreeGroupsAcrossChunks(t *testing.T) {
	// A Tree that groups needs its whole input: 300 rows are three chunks,
	// and the construction must still yield one document holding every
	// entry, each title group intact.
	in := tab.New("$t", "$o")
	const titles, owners = 100, 3
	for o := 0; o < owners; o++ {
		for i := 0; i < titles; i++ {
			in.Add(tab.AtomCell(data.String(fmt.Sprintf("title %d", i))), tab.AtomCell(data.Int(int64(o))))
		}
	}
	grouping := &algebra.TreeOp{From: &algebra.Literal{T: in},
		C: algebra.MustParseCons(`doc[ *entry[ title: $t, *owner: $o ] ]`)}
	got, err := exec.RunSerial(grouping, algebra.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("grouping Tree built %d documents from a chunked input, want 1", got.Len())
	}
	entries := got.Rows[0][0].Tree.Children("entry")
	if len(entries) != titles {
		t.Fatalf("document holds %d entries, want %d", len(entries), titles)
	}
	for _, e := range entries {
		if n := len(e.Children("owner")); n != owners {
			t.Fatalf("entry %s has %d owners, want %d: its group was split", e.Child("title"), n, owners)
		}
	}

	// A row-local Tree pipelines, and still builds one tree per distinct
	// binding however far apart its duplicates arrive.
	local := &algebra.TreeOp{From: &algebra.Project{From: &algebra.Literal{T: in}, Cols: []string{"$t"}},
		C: algebra.MustParseCons(`hit[ title: $t ]`)}
	got, err = exec.RunSerial(local, algebra.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != titles {
		t.Fatalf("row-local Tree built %d trees, want one per distinct title (%d)", got.Len(), titles)
	}
}
