package obs

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
)

// failAfter accepts n bytes, then rejects every write — the shape of an
// events disk filling mid-run.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestJSONLinesFailingWriterSurfacesEarly pins the daemon-fatal bug: a
// sink whose writer dies used to swallow every subsequent event silently
// until the final Flush. Now the sticky error is visible through Err the
// moment the write fails, the Monitor callback fires exactly once, and
// every suppressed event is counted.
func TestJSONLinesFailingWriterSurfacesEarly(t *testing.T) {
	bang := errors.New("disk full")
	// Small acceptance window so the bufio buffer overflows (and hits the
	// writer) after a handful of events.
	sink := NewJSONLines(&failAfter{n: 64, err: bang})
	c := &Counter{}
	var notified []error
	sink.Monitor(c, func(err error) { notified = append(notified, err) })

	const events = 200
	for i := 0; i < events; i++ {
		sink.Emit(Event{Kind: "x", Bank: i, Detail: strings.Repeat("p", 100)})
	}
	if err := sink.Err(); !errors.Is(err, bang) {
		t.Fatalf("Err() = %v, want the writer's error before Flush", err)
	}
	if len(notified) != 1 || !errors.Is(notified[0], bang) {
		t.Fatalf("Monitor callback fired %d times (%v), want exactly once with the writer error", len(notified), notified)
	}
	if sink.Dropped() == 0 || sink.Dropped() != c.Value() {
		t.Fatalf("Dropped() = %d, counter = %d; want equal and positive", sink.Dropped(), c.Value())
	}
	if err := sink.Flush(); !errors.Is(err, bang) {
		t.Fatalf("Flush() = %v, want the sticky writer error", err)
	}
	// Flush must not double-fire the callback.
	if len(notified) != 1 {
		t.Fatalf("Monitor callback re-fired on Flush: %d calls", len(notified))
	}
}

// TestJSONLinesFlushErrorSticks covers the tail case: every Emit fit the
// buffer, so only Flush touches the broken writer — the error must stick
// and fire the callback all the same.
func TestJSONLinesFlushErrorSticks(t *testing.T) {
	bang := errors.New("gone")
	sink := NewJSONLines(&failAfter{n: 0, err: bang})
	fired := 0
	sink.Monitor(nil, func(error) { fired++ })
	sink.Emit(Event{Kind: "x"})
	if err := sink.Err(); err != nil {
		t.Fatalf("premature sticky error before any writer contact: %v", err)
	}
	if err := sink.Flush(); !errors.Is(err, bang) {
		t.Fatalf("Flush() = %v, want writer error", err)
	}
	if fired != 1 {
		t.Fatalf("callback fired %d times, want 1", fired)
	}
	sink.Emit(Event{Kind: "y"})
	if sink.Dropped() != 1 {
		t.Fatalf("Dropped() = %d after post-failure Emit, want 1", sink.Dropped())
	}
}

// TestJSONLinesConcurrentEmitAfterFailure exercises the suppression path
// under -race: many goroutines emitting into a stuck sink must only ever
// bump the counters.
func TestJSONLinesConcurrentEmitAfterFailure(t *testing.T) {
	sink := NewJSONLines(&failAfter{n: 0, err: errors.New("dead")})
	c := &Counter{}
	sink.Monitor(c, nil)
	sink.Emit(Event{Kind: "prime"}) // buffered, so the Flush hits the writer
	sink.Flush()                    // stick it
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sink.Emit(Event{Kind: "x"})
			}
		}()
	}
	wg.Wait()
	if got := sink.Dropped(); got != 800 || c.Value() != 800 {
		t.Fatalf("Dropped() = %d, counter = %d, want 800", got, c.Value())
	}
}

var _ io.Writer = (*failAfter)(nil)
