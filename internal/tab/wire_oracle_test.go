package tab_test

import (
	"context"
	"encoding/binary"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/mediator"
	"repro/internal/o2wrap"
	"repro/internal/tab"
	"repro/internal/waiswrap"
	"repro/internal/wire"
	"repro/internal/xmlenc"
)

// recorder keeps every byte each of its connections reads.
type recorder struct {
	mu    sync.Mutex
	reads []*[]byte
}

type recordedConn struct {
	net.Conn
	got *[]byte
}

func (c recordedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.got = append(*c.got, p[:n]...)
	return n, err
}

func (r *recorder) wrap(conn net.Conn) net.Conn {
	got := new([]byte)
	r.mu.Lock()
	r.reads = append(r.reads, got)
	r.mu.Unlock()
	return recordedConn{conn, got}
}

// frames returns the frames read so far, connection by connection.
func (r *recorder) frames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, got := range r.reads {
		b := *got
		for len(b) >= 4 {
			n := int(binary.BigEndian.Uint32(b))
			if n > len(b)-4 {
				break
			}
			out = append(out, string(b[4:4+n]))
			b = b[4+n:]
		}
	}
	return out
}

// TestGoldenRepliesMatchOracle runs the differential golden's queries — Q1,
// Q2, their XQuery forms, the descendant axis and Figure 7's three plans —
// naive and optimized, scalar and batched, against the three wrapper
// families over loopback wire, and reads every <tab> of every reply frame.
// Each reads as what the oracle codec delivers for it (no String atom among
// them has white space to collapse), and the tabs written again are the
// frame's text.
func TestGoldenRepliesMatchOracle(t *testing.T) {
	rec := &recorder{}
	m := mediator.New()
	w := datagen.Generate(datagen.DefaultParams(200))
	ow := o2wrap.New("o2artifact", w.DB)
	schema := ow.ExportSchema()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(w.Works))
	fw := feed.New("bulkfeed", datagen.NewFeedStore(datagen.GenerateFeed(datagen.DefaultFeedParams(200))))
	for _, exp := range []wire.Exported{
		{Source: ow, Interface: ow.ExportInterface(), Structures: map[string]wire.StructureRef{
			"artifacts": {Model: schema, Pattern: "Artifact"}, "persons": {Model: schema, Pattern: "Person"}}},
		{Source: ww, Interface: ww.ExportInterface(), Structures: map[string]wire.StructureRef{
			"works": {Model: ww.ExportStructure(), Pattern: "Works"}}},
		{Source: fw, Interface: fw.ExportInterface(), Structures: map[string]wire.StructureRef{
			"records": {Model: fw.ExportStructure(), Pattern: "Records"}}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.Serve(ln, exp)
		t.Cleanup(srv.Close)
		c, err := wire.DialWith(context.Background(), srv.Addr(), wire.Options{WrapConn: rec.wrap})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := m.Connect(c, exp.Interface); err != nil {
			t.Fatal(err)
		}
		for doc, ref := range exp.Structures {
			m.ImportStructure(doc, ref.Model, ref.Pattern)
		}
	}
	m.RegisterFunc("contains", waiswrap.Contains)
	m.RegisterFunc("prefix", feed.Prefix)
	if err := m.LoadProgram(datagen.View1Src); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, chunk := range []int{1, algebra.DefaultBatchChunk} {
		opts := mediator.ExecOptions{Parallelism: 1, BatchChunk: chunk}
		for _, src := range []string{datagen.Q1Src, datagen.Q2Src, datagen.Q1XQuerySrc, datagen.Q2XQuerySrc,
			`doc("works")/works//technique`} {
			if _, err := m.ExecuteContext(ctx, src, opts); err != nil {
				t.Fatalf("optimized %q: %v", src, err)
			}
			plan, err := m.Compose(src)
			if err == nil {
				_, err = m.ExecutePlan(ctx, plan, opts)
			}
			if err != nil {
				t.Fatalf("naive %q: %v", src, err)
			}
		}
		for _, plan := range datagen.Fig7Plans() {
			if _, err := m.ExecutePlan(ctx, plan, opts); err != nil {
				t.Fatalf("Figure 7 plan: %v", err)
			}
		}
	}

	tabs, rows := 0, 0
	for _, f := range rec.frames() {
		n, err := xmlenc.Parse(f)
		if err != nil {
			t.Fatalf("reply frame does not parse: %v", err)
		}
		if n.Label != "chunk" || n.FirstElem() == nil || n.FirstElem().Label != "tab" {
			continue
		}
		// The frame's tabs, written again from what they read as, are the
		// frame's text: the reader loses nothing the writer wrote.
		var body []byte
		for _, k := range n.Kids {
			if k.IsAttr() {
				continue
			}
			got, err := tab.FromXML(k)
			if err != nil {
				t.Fatalf("%s: %v", xmlenc.Serialize(k), err)
			}
			bind, _ := strconv.Atoi(k.Attr("bind"))
			body = tab.AppendXML(body, got, bind)
			want, err := tab.OracleRoundTrip(got)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if exact, ok := tab.ExactAtoms(got, want); !ok || len(exact) > 0 {
				t.Errorf("reply tab %s\nreads\n%s\noracle\n%s\nexact where the oracle collapsed: %q", xmlenc.Serialize(k), got, want, exact)
			}
			tabs, rows = tabs+1, rows+got.Len()
		}
		if !strings.HasSuffix(f, string(body)+"</chunk>") {
			t.Errorf("reply frame\n%s\nwritten again from its tabs\n%s", f, body)
		}
	}
	if tabs == 0 || rows == 0 {
		t.Fatalf("%d tabs of %d rows in the replies: nothing was pushed", tabs, rows)
	}
	t.Logf("%d reply tabs, %d rows", tabs, rows)
}
