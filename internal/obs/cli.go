package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
)

// NewFromPaths wires a Recorder for command-line use from the shared
// -metrics / -events / -pprof flag values: eventsPath receives JSON-line
// events as they happen, metricsPath receives one indented JSON metrics
// snapshot when the returned close function runs. A path of "stderr" or
// "-" selects standard error (never stdout — the CLIs own stdout for their
// CSV/JSON/report output); anything else creates or truncates a file. A
// non-empty debugAddr, where the caller serves DebugMux, makes the
// Recorder live even without either path, so that endpoint's /metrics
// shows the run. When all three are empty the Recorder is nil — the no-op
// default — and close does nothing.
func NewFromPaths(metricsPath, eventsPath, debugAddr string) (*Recorder, func() error, error) {
	if metricsPath == "" && eventsPath == "" && debugAddr == "" {
		return nil, func() error { return nil }, nil
	}
	rec := New()
	var closers []func() error

	open := func(path string) (io.Writer, error) {
		if path == "stderr" || path == "-" {
			return os.Stderr, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		closers = append(closers, f.Close)
		return f, nil
	}
	closeAll := func() error {
		var first error
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	if eventsPath != "" {
		w, err := open(eventsPath)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: events: %w", err)
		}
		sink := NewJSONLines(w)
		// A sink that sticks on a write error (events disk full mid-run)
		// says so once, immediately, and counts every suppressed event into
		// the snapshot — a long-lived daemon must not discover at exit that
		// its event stream went dark hours earlier.
		sink.Monitor(rec.Counter("events_dropped_total"), func(err error) {
			fmt.Fprintf(os.Stderr, "obs: events sink failed (%v); dropping subsequent events\n", err)
		})
		rec.SetSink(sink)
		closers = append(closers, sink.Flush)
	}
	if metricsPath != "" {
		w, err := open(metricsPath)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("obs: metrics: %w", err)
		}
		closers = append(closers, func() error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rec.Snapshot())
		})
	}

	// Closers run last-registered first, so the metrics snapshot is
	// written (and the events buffer flushed) before files close.
	return rec, closeAll, nil
}

// DebugMux returns the HTTP mux behind the CLIs' -pprof flag: the
// standard /debug/pprof/ endpoints plus /metrics serving the Recorder's
// live snapshot as JSON (an empty snapshot when r is nil).
func DebugMux(r *Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
