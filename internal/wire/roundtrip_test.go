package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// workChunk is a chunk of tab.DefaultStreamChunk generated works, one piece
// each, as sendDoc hands them to the frame writer.
func workChunk(tb testing.TB) []piece {
	works := datagen.Generate(datagen.DefaultParams(400)).Works
	if len(works) < 128 {
		tb.Fatalf("%d works generated, want 128", len(works))
	}
	pieces := make([]piece, 128)
	for i := range pieces {
		pieces[i] = piece{tree: works[i]}
	}
	return pieces
}

// lastWrite is a connection that keeps a copy of the last frame written to
// it and counts the Writes.
type lastWrite struct {
	net.Conn
	frame  []byte
	writes int
}

func (c *lastWrite) Write(p []byte) (int, error) {
	c.frame = append(c.frame[:0], p...)
	c.writes++
	return len(p), nil
}

func (c *lastWrite) SetWriteDeadline(time.Time) error { return nil }

// allocated returns the allocations (rounded down, as testing.AllocsPerRun
// counts them, and on one P as it does) and bytes f allocates per call, over
// runs calls after a warm-up one.
func allocated(runs int, f func()) (allocs, size float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64((m1.Mallocs - m0.Mallocs) / uint64(runs)), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestFrameRoundTripAllocs holds a frame's bytes to one buffer on each side
// of the wire. A chunk of 128 works sent again through the same server
// connection's frame writer is serialized into the buffer the first one
// grew, and written in one Write; the reader takes the header into bytes of
// its own and the payload into one buffer of its size, handed out as the
// string.
func TestFrameRoundTripAllocs(t *testing.T) {
	pieces := workChunk(t)
	conn := &lastWrite{}
	w := &frameWriter{s: &Server{write: time.Minute}, conn: conn}
	allocs, size := allocated(100, func() { w.flush(pieces, false) })
	if w.err != nil || conn.writes != 101 {
		t.Fatalf("101 frames took %d writes (%v), want one each", conn.writes, w.err)
	}
	payload := len(conn.frame) - 4
	// measured: 0 allocations: the chunk is appended straight into the
	// buffer the first frame grew (1 of 1,152 bytes, its child list, while a
	// <chunk> node was built)
	if allocs > 0 || size > float64(payload)/8 {
		t.Errorf("a second chunk of 128 works through one frame writer: %v allocations of %.0f bytes, want none and no payload-sized buffer (%d bytes)", allocs, size, payload)
	}
	want, err := xmlenc.Parse(xmlenc.Serialize(&data.Node{Label: "chunk", Kids: []*data.Node{pieces[0].tree}}))
	if err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(nil)
	var raw string
	var hdr [4]byte // the reader's own, as a reply holds one
	allocs, size = allocated(100, func() {
		r.Reset(conn.frame)
		raw, err = readFrame(r, &hdr)
	})
	if err != nil || len(raw) != payload {
		t.Fatalf("ReadFrame: %d bytes, %v; want %d", len(raw), err, payload)
	}
	// measured: 1 allocation of 19,072 bytes, one buffer of the payload's
	// size, rounded up to its size class (a second copy into a string would
	// double it; a header read into the frame's own bytes would be a second
	// allocation)
	if allocs > 1 || size > 1.25*float64(payload) {
		t.Errorf("ReadFrame of a %d-byte frame: %v allocations of %.0f bytes, want at most 1 and one copy", payload, allocs, size)
	}
	got, err := xmlenc.Parse(raw)
	if err != nil || !data.Equal(got.Kids[0], want.Kids[0]) {
		t.Fatalf("the frame read back does not parse to the chunk sent: %v", err)
	}
}

// BenchmarkFrameRoundTrip ships one chunk of 128 works across the frame
// layer alone: the server's frame writer serializes it into its connection
// buffer and writes it to a net.Pipe, and the reader takes it with ReadFrame
// and parses it. B/op and MB/s (of payload) read the serialize, write, read
// and parse steps together, before and after a change to any of them.
func BenchmarkFrameRoundTrip(b *testing.B) {
	pieces := workChunk(b)
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	sizer := &lastWrite{}
	(&frameWriter{s: &Server{write: time.Minute}, conn: sizer}).flush(pieces, false)
	b.SetBytes(int64(len(sizer.frame)))
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		w := &frameWriter{s: &Server{write: time.Minute}, conn: near}
		for i := 0; i < b.N && w.err == nil; i++ {
			w.flush(pieces, false)
		}
	}()
	for i := 0; i < b.N; i++ {
		raw, err := ReadFrame(far)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xmlenc.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// q2Reply is a batch reply shaped like Q2's DJoin pushes to the O₂ wrapper:
// 64 bindings, five of every eight answered by one row of $t $y $c $p $o $au
// (40 rows), the others by an empty tab, each piece as the frame writer gets
// it from rows.
func q2Reply() []piece {
	pieces := make([]piece, algebra.DefaultBatchChunk)
	for i := range pieces {
		t := tab.New("$t", "$y", "$c", "$p", "$o", "$au")
		if i%8 < 5 {
			t.AddRow(tab.Row{
				tab.AtomCell(data.String(fmt.Sprintf("Painting %d", 800+i))), tab.AtomCell(data.Int(int64(1850 + i))),
				tab.AtomCell(data.String("Impressionist")), tab.AtomCell(data.Float(float64(100000 + 1250*i))),
				tab.AtomCell(data.String(fmt.Sprintf("p%d", 40+i))), tab.AtomCell(data.String("Claude Monet")),
			})
		}
		pieces[i] = piece{rows: t, bind: i}
	}
	return pieces
}

// readReply reads one reply frame from r the way a reply does — its header
// into hdr, its payload into one buffer — parses it and decodes its tabs.
func readReply(r io.Reader, hdr *[4]byte, out []*tab.Tab) error {
	raw, err := readFrame(r, hdr)
	if err != nil {
		return err
	}
	n, err := xmlenc.Parse(raw)
	if err != nil {
		return err
	}
	clear(out)
	return tabs(n, out)
}

// TestPushReplyRoundTripAllocs holds a Q2-shaped batch reply to its
// allocations from the frame writer to the decoded tabs: the frame appended
// into the writer's buffer, read into one buffer, parsed into one block, and
// each tab's rows decoded into one cell array.
func TestPushReplyRoundTripAllocs(t *testing.T) {
	pieces := q2Reply()
	conn := &lastWrite{}
	w := &frameWriter{s: &Server{write: time.Minute}, conn: conn}
	r := bytes.NewReader(nil)
	var hdr [4]byte
	out := make([]*tab.Tab, len(pieces))
	var err error
	allocs, size := allocated(50, func() {
		w.flush(pieces, true)
		r.Reset(conn.frame)
		err = readReply(r, &hdr, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pieces {
		if !out[i].Equal(p.rows) {
			t.Fatalf("binding %d: read back\n%v\nsent\n%v", i, out[i], p.rows)
		}
	}
	// measured: 159 allocations of 166,753 bytes for an 11,416-byte payload
	// (924 of 286,420 bytes for 11,652 when each tab became a tree before it
	// was serialized, and each row and cell was read into a slice of its own)
	if allocs > 159 {
		t.Errorf("a Q2-shaped batch reply of %d bytes: %v allocations of %.0f bytes, want at most 159", len(conn.frame)-4, allocs, size)
	}
}

// BenchmarkPushReplyRoundTrip ships a Q2-shaped batch reply across the wire
// alone: the server's frame writer appends it into its connection buffer and
// writes it to a net.Pipe, and the reader takes it with one frame read,
// parses it and decodes its tabs. B/op and allocs/op read the whole path;
// frame-bytes is what crosses the socket per reply, header included.
func BenchmarkPushReplyRoundTrip(b *testing.B) {
	pieces := q2Reply()
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	sizer := &lastWrite{}
	(&frameWriter{s: &Server{write: time.Minute}, conn: sizer}).flush(pieces, true)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		w := &frameWriter{s: &Server{write: time.Minute}, conn: near}
		for i := 0; i < b.N && w.err == nil; i++ {
			w.flush(pieces, true)
		}
	}()
	var hdr [4]byte
	out := make([]*tab.Tab, len(pieces))
	for i := 0; i < b.N; i++ {
		if err := readReply(far, &hdr, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sizer.frame)), "frame-bytes")
}
