package trace_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"graphene/internal/trace"
)

// errRead is the fault failingReader injects.
var errRead = errors.New("injected read fault")

// failingReader passes reads through to r until its third Read, which
// fails with errRead, as a disk or socket error mid-trace would.
type failingReader struct {
	r     io.Reader
	reads int
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.reads++; f.reads == 3 {
		return 0, errRead
	}
	return f.r.Read(p)
}

// TestFaultInjectTraceReadPropagates: an I/O error mid-read must surface
// from ReadFrom as a trace error wrapping the read fault — never as a
// silently truncated trace.
func TestFaultInjectTraceReadPropagates(t *testing.T) {
	// Enough lines to guarantee more than one Read through the scanner.
	var sb strings.Builder
	sb.WriteString("# trace fault-fixture\n")
	for i := 0; i < 50_000; i++ {
		sb.WriteString("0 1 10\n")
	}
	_, err := trace.ReadFrom(&failingReader{r: strings.NewReader(sb.String())}, "fallback")
	if !errors.Is(err, errRead) {
		t.Fatalf("err = %v, want the injected read fault", err)
	}
	if !strings.HasPrefix(err.Error(), "trace: ") {
		t.Fatalf("fault not wrapped as a trace error: %v", err)
	}

	// Without the fault the same fixture parses completely.
	gen, err := trace.ReadFrom(strings.NewReader(sb.String()), "fallback")
	if err != nil {
		t.Fatal(err)
	}
	if gen.Name() != "fault-fixture" {
		t.Fatalf("name = %q", gen.Name())
	}
	n := 0
	for {
		if _, ok := gen.Next(); !ok {
			break
		}
		n++
	}
	if n != 50_000 {
		t.Fatalf("parsed %d accesses, want 50000", n)
	}
}

// TestFaultInjectBlockReaderPropagates: the binary block reader must
// surface a mid-stream read fault as an error wrapping it — never io.EOF,
// never a short block sequence that looks like a complete trace.
func TestFaultInjectBlockReaderPropagates(t *testing.T) {
	// Multi-segment binary fixture so reads span several segment payloads.
	accs := make([]trace.Access, 0, 150_000)
	for i := 0; i < 150_000; i++ {
		accs = append(accs, trace.Access{Bank: i % 4, Row: i % 1024, Gap: 10})
	}
	var bb bytes.Buffer
	if _, err := trace.WriteBinary(&bb, trace.FromSlice("fault-bin", accs)); err != nil {
		t.Fatal(err)
	}

	br, err := trace.NewBlockReader(&failingReader{r: bytes.NewReader(bb.Bytes())})
	if err != nil {
		// The fault may already hit inside the header read; that is a valid
		// propagation too, as long as it is the injected error.
		if !errors.Is(err, errRead) {
			t.Fatalf("NewBlockReader err = %v, want injected fault", err)
		}
		return
	}
	for {
		_, err := br.NextCols(trace.ColBlock{})
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("block reader reached clean EOF through an injected fault")
		}
		if !errors.Is(err, errRead) {
			t.Fatalf("NextCols err = %v, want injected fault", err)
		}
		if !strings.HasPrefix(err.Error(), "trace: ") {
			t.Fatalf("fault not wrapped as a trace error: %v", err)
		}
		break
	}

	// Without the fault the same stream block-decodes completely.
	br, err = trace.NewBlockReader(bytes.NewReader(bb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var blk trace.ColBlock
	for {
		blk, err = br.NextCols(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(blk.Rows))
	}
	if total != int64(len(accs)) {
		t.Fatalf("decoded %d accesses, want %d", total, len(accs))
	}
}
