package feed

import (
	"archive/zip"
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/data"
	"repro/internal/xmlenc"
)

// Reader yields dump records one at a time. Next returns io.EOF when the
// dump is exhausted and *MalformedError for a record that cannot be decoded
// — the caller may keep pulling past it, which is how ingest quarantines
// broken records without aborting the feed. Any other error is a transport
// failure and terminal.
type Reader interface {
	Next() (*data.Node, error)
	Close() error
}

// MalformedError reports one undecodable record: the dump entry and line it
// came from and why it was rejected. It is recoverable — Next keeps working
// after returning it.
type MalformedError struct {
	Entry  string // file or zip-entry name
	Line   int    // 1-based line within the entry
	Reason string
}

func (e *MalformedError) Error() string {
	return fmt.Sprintf("feed: %s line %d: %s", e.Entry, e.Line, e.Reason)
}

// ndxmlReader decodes newline-delimited XML: one record element per line,
// blank lines ignored. Lines are parsed as they are read — the reader holds
// one line and the decoded tree, never the dump.
type ndxmlReader struct {
	entry string
	br    *bufio.Reader
	line  int
	close io.Closer
}

// NewNDXML returns a Reader over newline-delimited XML. The entry name
// appears in MalformedError diagnostics.
func NewNDXML(r io.Reader, entry string) Reader {
	return &ndxmlReader{entry: entry, br: bufio.NewReaderSize(r, 64<<10)}
}

func (r *ndxmlReader) Next() (*data.Node, error) {
	for {
		line, err := r.br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		if line != "" {
			r.line++
		}
		if s := strings.TrimSpace(line); s != "" {
			n, perr := xmlenc.Parse(s)
			if perr != nil {
				return nil, &MalformedError{Entry: r.entry, Line: r.line, Reason: perr.Error()}
			}
			xmlenc.InferAtoms(n)
			return n, nil
		}
		if err == io.EOF {
			return nil, io.EOF
		}
	}
}

func (r *ndxmlReader) Close() error {
	if r.close != nil {
		return r.close.Close()
	}
	return nil
}

// zipReader iterates the `.ndxml`/`.xml` entries of a zip archive in order,
// composing an ndxmlReader over each entry's decompressing stream: one
// entry is open at a time and entries are never slurped.
type zipReader struct {
	entries []*zip.File
	pos     int
	cur     Reader
	curRC   io.ReadCloser
	close   io.Closer
}

// NewZip returns a Reader over the record-bearing entries of a zip archive.
func NewZip(r io.ReaderAt, size int64) (Reader, error) {
	zr, err := zip.NewReader(r, size)
	if err != nil {
		return nil, err
	}
	return newZipReader(zr, nil), nil
}

func newZipReader(zr *zip.Reader, close io.Closer) *zipReader {
	out := &zipReader{close: close}
	for _, f := range zr.File {
		if strings.HasSuffix(f.Name, ".ndxml") || strings.HasSuffix(f.Name, ".xml") {
			out.entries = append(out.entries, f)
		}
	}
	return out
}

func (r *zipReader) Next() (*data.Node, error) {
	for {
		if r.cur == nil {
			if r.pos >= len(r.entries) {
				return nil, io.EOF
			}
			rc, err := r.entries[r.pos].Open()
			if err != nil {
				return nil, fmt.Errorf("feed: entry %s: %w", r.entries[r.pos].Name, err)
			}
			r.cur = NewNDXML(rc, r.entries[r.pos].Name)
			r.curRC = rc
			r.pos++
		}
		n, err := r.cur.Next()
		if err == io.EOF {
			r.curRC.Close()
			r.cur, r.curRC = nil, nil
			continue
		}
		return n, err
	}
}

func (r *zipReader) Close() error {
	if r.curRC != nil {
		r.curRC.Close()
		r.cur, r.curRC = nil, nil
	}
	if r.close != nil {
		return r.close.Close()
	}
	return nil
}

// OpenDump opens a dump file by extension: `.ndxml` as newline-delimited
// XML, `.zip` (conventionally `.xml.zip`) as a zip of such entries.
func OpenDump(path string) (Reader, error) {
	switch {
	case strings.HasSuffix(path, ".ndxml"):
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		r := NewNDXML(f, path).(*ndxmlReader)
		r.close = f
		return r, nil
	case strings.HasSuffix(path, ".zip"):
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		zr, err := zip.NewReader(f, st.Size())
		if err != nil {
			f.Close()
			return nil, err
		}
		return newZipReader(zr, f), nil
	default:
		return nil, fmt.Errorf("feed: %s: unknown dump format (want .ndxml or .zip)", path)
	}
}
