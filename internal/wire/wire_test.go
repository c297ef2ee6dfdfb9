package wire

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/datagen"
	"repro/internal/filter"
	"repro/internal/o2wrap"
	"repro/internal/waiswrap"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, "<hello/>"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || got != "<hello/>" {
		t.Errorf("frame = %q, %v", got, err)
	}
	// oversized frames rejected
	big := strings.Repeat("x", MaxFrame+1)
	if err := WriteFrame(&buf, big); err == nil {
		t.Error("oversized write must fail")
	}
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&hdr); err == nil {
		t.Error("oversized read must fail")
	}
	// truncated payload
	var tr bytes.Buffer
	tr.Write([]byte{0, 0, 0, 5, 'a'})
	if _, err := ReadFrame(&tr); err == nil {
		t.Error("truncated frame must fail")
	}
}

// serveO2 starts an O₂ wrapper server on an ephemeral port.
func serveO2(t *testing.T) (*Server, *o2wrap.Wrapper) {
	t.Helper()
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	schema := ow.ExportSchema()
	srv := Serve(ln, Exported{
		Source:    ow,
		Interface: ow.ExportInterface(),
		Structures: map[string]StructureRef{
			"artifacts": {Model: schema, Pattern: "Artifact"},
			"persons":   {Model: schema, Pattern: "Person"},
		},
	})
	t.Cleanup(srv.Close)
	return srv, ow
}

func serveWais(t *testing.T) (*Server, *waiswrap.Wrapper) {
	t.Helper()
	ww := waiswrap.New("xmlartwork", datagen.NewWaisEngine(datagen.PaperWorks()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, Exported{
		Source:    ww,
		Interface: ww.ExportInterface(),
		Structures: map[string]StructureRef{
			"works": {Model: ww.ExportStructure(), Pattern: "Works"},
		},
	})
	t.Cleanup(srv.Close)
	return srv, ww
}

func TestHelloAndImports(t *testing.T) {
	srv, _ := serveO2(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Name() != "o2artifact" {
		t.Errorf("name = %q", c.Name())
	}
	// Two extents plus their node tables (PR 7).
	if len(c.Documents()) != 4 {
		t.Errorf("docs = %v", c.Documents())
	}
	iface, err := c.ImportInterface()
	if err != nil {
		t.Fatal(err)
	}
	if !iface.HasOperation("bind") || !iface.HasOperation("current_price") {
		t.Error("interface incomplete over the wire")
	}
	sts, err := c.ImportStructures()
	if err != nil {
		t.Fatal(err)
	}
	if sts["artifacts"].Pattern != "Artifact" || sts["artifacts"].Model.Lookup("Artifact") == nil {
		t.Errorf("structures = %+v", sts)
	}
}

func TestRemoteFetchMatchesLocal(t *testing.T) {
	srv, ow := serveO2(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote, err := c.Fetch("artifacts")
	if err != nil {
		t.Fatal(err)
	}
	local, err := ow.Fetch("artifacts")
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("forest sizes: remote %d local %d", len(remote), len(local))
	}
	// Trees survive the XML round trip up to atom typing: the wire carries
	// strings; compare titles structurally.
	if remote[0].Label != "set" || len(remote[0].Kids) != 3 {
		t.Errorf("remote extent = %v", remote[0])
	}
	if _, err := c.Fetch("ghost"); err == nil {
		t.Error("remote fetch error must propagate")
	}
}

func TestRemotePushMatchesLocal(t *testing.T) {
	srv, ow := serveO2(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts",
			F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t, year: $y ] ] ]`)},
		Pred: algebra.MustParseExpr(`$y > 1800`),
	}
	remote, err := c.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := ow.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !remote.EqualUnordered(local) {
		t.Errorf("remote:\n%s\nlocal:\n%s", remote, local)
	}
	// error propagation for unsupported plans
	badPlan := &algebra.Bind{Doc: "artifacts", F: filter.MustParse(`set[ *class[ artifact.tuple[ ghost: $g ] ] ]`)}
	if _, err := c.Push(badPlan, nil); err == nil {
		t.Error("remote push error must propagate")
	}
}

func TestServerIdleTimeoutDisconnects(t *testing.T) {
	// A client that connects and then goes silent must be disconnected when
	// the idle deadline passes, not pin its handler goroutine forever.
	ow := o2wrap.New("o2artifact", datagen.PaperDB())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeOpts(ln, Exported{Source: ow}, ServeOptions{IdleTimeout: 100 * time.Millisecond, WriteTimeout: time.Second})
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An active connection keeps working within the idle window.
	if err := WriteFrame(conn, "<hello/>"); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadFrame(conn); err != nil || !strings.Contains(resp, "o2artifact") {
		t.Fatalf("hello over short-idle server: %q, %v", resp, err)
	}
	// Now stall: the server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := ReadFrame(conn); err == nil {
		t.Fatal("stalled connection was not disconnected")
	}
	if elapsed := time.Since(start); elapsed >= 5*time.Second {
		t.Fatalf("disconnect took %v: idle deadline did not fire", elapsed)
	}
}
