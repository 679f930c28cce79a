package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphene/internal/trace"
)

func TestRecordAndReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s3.trace")
	if err := doRecord("S3", path, "auto", 50000, 0, 0.01, 1); err != nil {
		t.Fatalf("record: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# trace S3\n") {
		t.Errorf("missing header: %q", string(data[:32]))
	}
	if err := doReplay(path, "graphene", 50000, 1); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestRecordProfileWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.trace")
	if err := doRecord("mcf", path, "auto", 50000, 5000, 0, 1); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := doReplay(path, "twice", 50000, 1); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestRecordUnknownWorkload(t *testing.T) {
	if err := doRecord("nope", "", "auto", 50000, 10, 0.1, 1); err == nil {
		t.Error("accepted unknown workload")
	}
}

func TestReplayMissingFile(t *testing.T) {
	if err := doReplay(filepath.Join(t.TempDir(), "absent.trace"), "graphene", 50000, 1); err == nil {
		t.Error("accepted missing file")
	}
}

func TestReplayDetectsUnprotectedFlips(t *testing.T) {
	// A full-window single-row hammer replayed against "none" must report
	// the protection failure as an error.
	path := filepath.Join(t.TempDir(), "hot.trace")
	if err := doRecord("S3", path, "auto", 50000, 0, 0.2, 1); err != nil {
		t.Fatal(err)
	}
	// 0.2 windows ≈ 271K ACTs > TRH 50K: flips guaranteed unprotected.
	if err := doReplay(path, "none", 50000, 1); err == nil {
		t.Error("unprotected replay with flips did not error")
	}
}

func TestConvertRoundTrip(t *testing.T) {
	// text -> binary -> text with -to auto must reproduce the original
	// file byte for byte (the header is already sanitized on record).
	dir := t.TempDir()
	text := filepath.Join(dir, "s3.trace")
	bin := filepath.Join(dir, "s3.bin")
	back := filepath.Join(dir, "back.trace")
	if err := doRecord("S3", text, "text", 50000, 0, 0.01, 1); err != nil {
		t.Fatal(err)
	}
	if err := doConvert(text, bin, "auto"); err != nil {
		t.Fatalf("to binary: %v", err)
	}
	raw, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.IsBinary(bufio.NewReader(bytes.NewReader(raw))) {
		t.Fatal("auto-converted text trace is not binary")
	}
	if err := doConvert(bin, back, "auto"); err != nil {
		t.Fatalf("back to text: %v", err)
	}
	orig, err := os.ReadFile(text)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, got) {
		t.Errorf("text->binary->text not identical:\norig %d bytes\n got %d bytes", len(orig), len(got))
	}
}

func TestConvertDwellRoundTrip(t *testing.T) {
	// A trace carrying the optional dwell column must survive
	// text -> binary -> text byte for byte: the binary side encodes the
	// column as the RHTB2 per-segment dwell block, the text side re-emits
	// the fourth column only on the accesses that carried it.
	dir := t.TempDir()
	text := filepath.Join(dir, "press.trace")
	orig := "# trace press\n0 5 0 95100\n1 6 100\n0 5 50 31700\n"
	if err := os.WriteFile(text, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "press.bin")
	if err := doConvert(text, bin, "auto"); err != nil {
		t.Fatalf("to binary: %v", err)
	}
	raw, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.IsBinary(bufio.NewReader(bytes.NewReader(raw))) {
		t.Fatal("auto-converted dwell trace is not binary")
	}
	back := filepath.Join(dir, "back.trace")
	if err := doConvert(bin, back, "auto"); err != nil {
		t.Fatalf("back to text: %v", err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != orig {
		t.Errorf("dwell text->binary->text not identical:\norig %q\n got %q", orig, got)
	}
	// A binary dwell trace torn inside the dwell block must be rejected,
	// not replayed with silently truncated dwells.
	torn := filepath.Join(dir, "torn.bin")
	if err := os.WriteFile(torn, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := doReplay(torn, "graphene", 50000, 1); err == nil {
		t.Error("replayed a binary trace torn inside the dwell block")
	}
}

func TestConvertExplicitFormats(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "s3.trace")
	if err := doRecord("S3", text, "text", 50000, 0, 0.01, 1); err != nil {
		t.Fatal(err)
	}
	// -to text on a text input is an identity conversion.
	same := filepath.Join(dir, "same.trace")
	if err := doConvert(text, same, "text"); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(text)
	b, _ := os.ReadFile(same)
	if !bytes.Equal(a, b) {
		t.Error("-to text identity conversion changed the file")
	}
	if err := doConvert(text, filepath.Join(dir, "x"), "tsv"); err == nil {
		t.Error("accepted unknown output format")
	}
	if err := doConvert(filepath.Join(dir, "absent"), "", "auto"); err == nil {
		t.Error("accepted missing input")
	}
}

func TestRecordBinaryAndReplay(t *testing.T) {
	// -record -to binary produces a binary file that -replay auto-detects
	// and streams through the block-direct path.
	path := filepath.Join(t.TempDir(), "s3.bin")
	if err := doRecord("S3", path, "binary", 50000, 0, 0.01, 1); err != nil {
		t.Fatalf("record: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.IsBinary(bufio.NewReader(bytes.NewReader(raw))) {
		t.Fatal("-to binary did not produce a binary trace")
	}
	if err := doReplay(path, "graphene", 50000, 1); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestReplayBinaryMatchesText(t *testing.T) {
	// The same workload replayed from its text and binary recordings must
	// agree on the flips verdict; doReplay returns an error iff flips > 0.
	dir := t.TempDir()
	text := filepath.Join(dir, "hot.trace")
	if err := doRecord("S3", text, "text", 50000, 0, 0.2, 1); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "hot.bin")
	if err := doConvert(text, bin, "binary"); err != nil {
		t.Fatal(err)
	}
	terr := doReplay(text, "none", 50000, 1)
	berr := doReplay(bin, "none", 50000, 1)
	if (terr == nil) != (berr == nil) {
		t.Errorf("text and binary replay disagree: text=%v binary=%v", terr, berr)
	}
	if terr == nil {
		t.Error("unprotected replay with flips did not error")
	}
}

func TestReplayRejectsTornBinary(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "s3.bin")
	if err := doRecord("S3", bin, "binary", 50000, 0, 0.01, 1); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.bin")
	if err := os.WriteFile(torn, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := doReplay(torn, "graphene", 50000, 1); err == nil {
		t.Error("replayed a torn binary trace without error")
	}
}

// replayOutput runs doReplay and returns what it printed.
func replayOutput(t *testing.T, path string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = doReplay(path, "graphene", 50000, 1)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("replay %s: %v", filepath.Base(path), err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// wideTrace is a text trace that touches rows beyond the default 65,536
// per bank, in two blocks: the highest row is in the later one.
const wideTrace = "# trace wide\n0 5 0\n1 70000 100\n2 80000 50\n0 6 50\n"

// TestReplayGrowsRowsToTrace: a trace that touches rows beyond the
// default 65,536 rows per bank replays, from text and from its binary
// conversion, on rows grown to its highest row, as rhsim -trace replays
// it.
func TestReplayGrowsRowsToTrace(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "wide.trace")
	if err := os.WriteFile(text, []byte(wideTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "wide.bin")
	if err := doConvert(text, bin, "binary"); err != nil {
		t.Fatal(err)
	}
	got, want := replayOutput(t, bin), replayOutput(t, text)
	if !strings.Contains(want, "(4 accesses, 3 banks)") {
		t.Errorf("text replay printed\n%s\nwant 4 accesses on 3 banks", want)
	}
	if got != want {
		t.Errorf("binary replay printed\n%s\ntext replay printed\n%s", got, want)
	}
}
