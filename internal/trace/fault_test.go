package trace_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"graphene/internal/faultinject"
	"graphene/internal/trace"
)

// TestFaultInjectTraceReadPropagates: an injected I/O error mid-read must
// surface from ReadFrom as a trace error wrapping the injected fault —
// never as a silently truncated trace.
func TestFaultInjectTraceReadPropagates(t *testing.T) {
	// Enough lines to guarantee more than one Read through the scanner.
	var sb strings.Builder
	sb.WriteString("# trace fault-fixture\n")
	for i := 0; i < 50_000; i++ {
		sb.WriteString("0 1 10\n")
	}
	inj, err := faultinject.New("trace.read:error:3")
	if err != nil {
		t.Fatal(err)
	}
	_, err = trace.ReadFrom(inj.Reader(faultinject.SiteTraceRead, strings.NewReader(sb.String())), "fallback")
	if !errors.Is(err, faultinject.ErrInjected) {
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
// surface an injected mid-stream read fault as an error wrapping
// ErrInjected — never io.EOF, never a short block sequence that looks like
// a complete trace.
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

	inj, err := faultinject.New("trace.read:error:3")
	if err != nil {
		t.Fatal(err)
	}
	br, err := trace.NewBlockReader(inj.Reader(faultinject.SiteTraceRead, bytes.NewReader(bb.Bytes())))
	if err != nil {
		// The fault may already hit inside the header read; that is a valid
		// propagation too, as long as it is the injected error.
		if !errors.Is(err, faultinject.ErrInjected) {
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
		if !errors.Is(err, faultinject.ErrInjected) {
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
