//go:build unix

package main

import (
	"os"
	"path/filepath"
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

// TestReplayBinaryFromPipe: a binary trace replays from a file that
// cannot seek, here a FIFO, with the same output as from the file itself:
// one within the default rows per bank, and one beyond them, whose
// geometry is sized before the replay from the one read of the FIFO.
func TestReplayBinaryFromPipe(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "mcf.bin")
	if err := doRecord("mcf", bin, "binary", 50000, 20000, 0, 1); err != nil {
		t.Fatal(err)
	}
	text := filepath.Join(dir, "wide.trace")
	if err := os.WriteFile(text, []byte(wideTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	wide := filepath.Join(dir, "wide.bin")
	if err := doConvert(text, wide, "binary"); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bin, wide} {
		fifo, wait := throughFIFO(t, dir, path)
		got := replayOutput(t, fifo)
		if err := wait(); err != nil {
			t.Fatalf("writing the FIFO: %v", err)
		}
		if want := replayOutput(t, path); got != want {
			t.Errorf("%s: replay from a FIFO printed\n%s\nfrom the file\n%s", filepath.Base(path), got, want)
		}
	}
}
