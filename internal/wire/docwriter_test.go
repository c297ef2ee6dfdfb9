package wire

import (
	"bytes"
	"context"
	"net"
	"testing"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/nodetab"
	"repro/internal/o2wrap"
)

// recordingConn keeps every byte the client reads: the reply frames, whole.
type recordingConn struct {
	net.Conn
	got *bytes.Buffer
}

func (c recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.got.Write(p[:n])
	return n, err
}

// replyBytes serves src, fetches doc from it and returns the reply as the
// socket carried it: its frames, header and payload.
func replyBytes(t *testing.T, src algebra.Source, doc string) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Exported{Source: src})
	defer srv.Close()
	var got bytes.Buffer
	c, err := DialWith(context.Background(), srv.Addr(), Options{
		WrapConn: func(conn net.Conn) net.Conn { return recordingConn{conn, &got} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got.Reset() // the dial's own exchange
	if _, err := c.Fetch(doc); err != nil {
		t.Fatal(err)
	}
	return got.Bytes()
}

// TestWrittenDocsMatchServedTrees holds a document the O₂ wrapper writes
// itself (WriteDoc) to the reply the server gave when it serialized the
// fetched trees, which it still does for a source that does not write XML:
// the same frames, byte for byte. At 1,000 artifacts the closure of persons
// the artifacts refer to spans several chunks.
func TestWrittenDocsMatchServedTrees(t *testing.T) {
	ow := o2wrap.New("o2artifact", datagen.Generate(datagen.DefaultParams(1000)).DB)
	fetchOnly := struct{ algebra.Source }{ow} // hides WriteDoc
	for _, doc := range []string{"artifacts", "persons", nodetab.Doc("artifacts")} {
		written, served := replyBytes(t, ow, doc), replyBytes(t, fetchOnly, doc)
		if !bytes.Equal(written, served) {
			t.Errorf("%s: written reply (%d bytes) differs from the served trees (%d bytes)", doc, len(written), len(served))
		}
		if frames := bytes.Count(served, []byte("<chunk")); doc == "artifacts" && frames < 2 {
			t.Errorf("%s: %d frames, want several", doc, frames)
		}
	}
}
