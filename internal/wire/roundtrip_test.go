package wire

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/datagen"
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
// grew, and written in one Write; ReadFrame reads it into one buffer of its
// size and hands that out as the string.
func TestFrameRoundTripAllocs(t *testing.T) {
	pieces := workChunk(t)
	conn := &lastWrite{}
	w := &frameWriter{s: &Server{write: time.Minute}, conn: conn}
	allocs, size := allocated(100, func() { w.flush(pieces, false) })
	if w.err != nil || conn.writes != 101 {
		t.Fatalf("101 frames took %d writes (%v), want one each", conn.writes, w.err)
	}
	payload := len(conn.frame) - 4
	// measured: 1 allocation of 1,152 bytes, the chunk's child list; the
	// 18,829-byte payload goes into the buffer the first frame grew
	if allocs > 1 || size > float64(payload)/8 {
		t.Errorf("a second chunk of 128 works through one frame writer: %v allocations of %.0f bytes, want at most 1 and no payload-sized buffer (%d bytes)", allocs, size, payload)
	}
	want, err := xmlenc.Parse(xmlenc.Serialize(&data.Node{Label: "chunk", Kids: []*data.Node{pieces[0].tree}}))
	if err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(nil)
	var raw string
	allocs, size = allocated(100, func() {
		r.Reset(conn.frame)
		raw, err = ReadFrame(r)
	})
	if err != nil || len(raw) != payload {
		t.Fatalf("ReadFrame: %d bytes, %v; want %d", len(raw), err, payload)
	}
	// measured: 2 allocations of 19,076 bytes: the header's four and one
	// buffer of the payload's size, rounded up to its size class (a second
	// copy into a string would double it)
	if allocs > 2 || size > 1.25*float64(payload) {
		t.Errorf("ReadFrame of a %d-byte frame: %v allocations of %.0f bytes, want at most 2 and one copy", payload, allocs, size)
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
