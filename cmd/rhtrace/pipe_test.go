//go:build unix

package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// throughFIFO makes a FIFO in dir and writes the file at path into it
// once a reader opens it. wait returns the writer's error.
func throughFIFO(t *testing.T, dir, path string) (fifo string, wait func() error) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fifo = filepath.Join(dir, filepath.Base(path)+".fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	wrote := make(chan error, 1)
	go func() {
		// Opening for writing blocks until doReplay opens the read end.
		w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			wrote <- err
			return
		}
		_, err = w.Write(raw)
		w.Close()
		wrote <- err
	}()
	return fifo, func() error { return <-wrote }
}

// TestReplayBinaryFromPipe: a binary trace within the default rows per
// bank replays from a file that cannot seek, here a FIFO, with the same
// output as from the file itself, so it is read once. A trace beyond
// those rows fails there, with an error that says it needs a file that
// can seek and names the trace's highest row.
func TestReplayBinaryFromPipe(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mcf.bin")
	if err := doRecord("mcf", bin, "binary", 50000, 20000, 0, 1); err != nil {
		t.Fatal(err)
	}
	fifo, wait := throughFIFO(t, dir, bin)
	got := replayOutput(t, fifo)
	if err := wait(); err != nil {
		t.Fatalf("writing the FIFO: %v", err)
	}
	if want := replayOutput(t, bin); got != want {
		t.Errorf("replay from a FIFO printed\n%s\nfrom the file\n%s", got, want)
	}

	text := filepath.Join(dir, "wide.trace")
	if err := os.WriteFile(text, []byte(wideTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	wide := filepath.Join(dir, "wide.bin")
	if err := doConvert(text, wide, "binary"); err != nil {
		t.Fatal(err)
	}
	fifo, wait = throughFIFO(t, dir, wide)
	err := doReplay(fifo, "graphene", 50000, 1)
	if werr := wait(); werr != nil {
		t.Fatalf("writing the FIFO: %v", werr)
	}
	if err == nil || !strings.Contains(err.Error(), "row 80000") || !strings.Contains(err.Error(), "seek") {
		t.Errorf("replaying a trace beyond the default rows from a FIFO: err = %v, want one naming row 80000 and seeking", err)
	}
}
