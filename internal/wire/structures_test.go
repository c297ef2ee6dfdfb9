package wire

import (
	"net"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/nodetab"
	"repro/internal/o2wrap"
	"repro/internal/waiswrap"
)

// serveStructures serves the O₂ wrapper with the structures all three
// wrapper families and the node tables export, enough documents for map
// order to show.
func serveStructures(t *testing.T) (*Server, map[string]StructureRef) {
	t.Helper()
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
	schema := ow.ExportSchema()
	sts := map[string]StructureRef{
		"artifacts":       {Model: schema, Pattern: "Artifact"},
		"persons":         {Model: schema, Pattern: "Person"},
		"works":           {Model: waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks())).ExportStructure(), Pattern: "Works"},
		"records":         {Model: feed.New("feed", feed.NewStore()).ExportStructure(), Pattern: "Records"},
		"artifacts.nodes": {Model: nodetab.StructureModel(), Pattern: nodetab.StructurePatternName},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Exported{Source: ow, Interface: ow.ExportInterface(), Structures: sts})
	t.Cleanup(srv.Close)
	return srv, sts
}

// ImportStructures hands back the very models the wrapper exported.
func TestImportStructuresEqualsExported(t *testing.T) {
	srv, want := serveStructures(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.ImportStructures()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("imported structures differ from the exported ones:\n%v\nvs\n%v", got, want)
	}
}

// Two <structures-request/>s to one server get the same frame: entries are
// written in document order, not in the order of the server's map.
func TestStructuresReplyIsStable(t *testing.T) {
	srv, _ := serveStructures(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var first string
	for i := 0; i < 10; i++ {
		if err := WriteFrame(conn, `<structures-request/>`); err != nil {
			t.Fatal(err)
		}
		frame, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = frame
		} else if frame != first {
			t.Fatalf("reply %d differs from the first:\n%s\nvs\n%s", i, frame, first)
		}
	}
}
