package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// Flags holds the values of the observability and profiling flags the
// commands share. Each command defines the flags itself, with its own
// help text, and starts them with one call to Start.
type Flags struct {
	Metrics    string // one indented JSON metrics snapshot, written at stop
	Events     string // JSON-line events, streamed as they happen
	Pprof      string // listen address of the debug server (DebugMux)
	CPUProfile string // CPU profile of everything between Start and stop
	MemProfile string // allocation profile, written at stop after a GC
}

// Start starts what f asks for and returns the Recorder, the debug
// server's bound address, and stop, which ends it all. The Recorder is
// live when Metrics, Events or Pprof is set, so the debug server's
// /metrics shows the run even without a file; otherwise it is nil, the
// no-op default. addr is empty without Pprof; an address ending ":0" comes
// back with the port the kernel chose.
//
// A Metrics or Events value of "stderr" or "-" selects standard error
// (never stdout, which the commands keep for their results); any other
// value, and both profile paths, create or truncate a file. Start binds
// the debug server, then creates the events, metrics and profile files in
// that order, so a bad path or an occupied port fails Start, not the end
// of the run or a message racing by on stderr, and a bad address or
// metrics/events path touches no profile file. A Start that fails closes
// the listener, removes the files it created, and returns a nil stop.
//
// Call stop on every path after Start succeeds; later calls return the
// first call's result. In order it ends the CPU profile, writes the
// allocation profile, shuts down the debug server (in-flight requests get
// 5 s), flushes the events, writes the metrics snapshot and closes the
// files. Every step runs, and stop returns the first error.
func (f Flags) Start() (rec *Recorder, addr string, stop func() error, err error) {
	// Everything that can fail comes first; a failure undoes only that.
	var (
		ln    net.Listener
		files []*os.File
	)
	defer func() {
		if err == nil {
			return
		}
		if ln != nil {
			ln.Close()
		}
		for _, fl := range files {
			fl.Close()
			os.Remove(fl.Name())
		}
	}()
	create := func(what, path string) (io.Writer, error) {
		if path == "" {
			return nil, nil
		}
		fl, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("obs: %s: %w", what, err)
		}
		files = append(files, fl)
		return fl, nil
	}
	open := func(what, path string) (io.Writer, error) {
		if path == "stderr" || path == "-" {
			return os.Stderr, nil
		}
		return create(what, path)
	}
	if f.Pprof != "" {
		if ln, err = net.Listen("tcp", f.Pprof); err != nil {
			return nil, "", nil, fmt.Errorf("obs: debug server: %w", err)
		}
	}
	ew, err := open("events", f.Events)
	if err != nil {
		return nil, "", nil, err
	}
	mw, err := open("metrics", f.Metrics)
	if err != nil {
		return nil, "", nil, err
	}
	cpu, err := create("cpu profile", f.CPUProfile)
	if err != nil {
		return nil, "", nil, err
	}
	mem, err := create("mem profile", f.MemProfile)
	if err != nil {
		return nil, "", nil, err
	}
	var steps []func() error
	if cpu != nil {
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, "", nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		steps = append(steps, func() error { pprof.StopCPUProfile(); return nil })
	}

	// Nothing fails from here on. Each part registers its step in stop's
	// order; stop closes the files last.
	if f.Metrics != "" || f.Events != "" || f.Pprof != "" {
		rec = New()
	}
	if mem != nil {
		steps = append(steps, func() error {
			runtime.GC() // the profile then counts what is live at stop, as go test -memprofile does
			if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
				return fmt.Errorf("obs: mem profile: %w", err)
			}
			return nil
		})
	}
	if ln != nil {
		addr = ln.Addr().String()
		steps = append(steps, serveDebug(ln, rec))
	}
	if ew != nil {
		sink := NewJSONLines(ew)
		// A sink that sticks on a write error (events disk full mid-run)
		// says so once, immediately, and counts every suppressed event into
		// the snapshot — a long-lived daemon must not discover at exit that
		// its event stream went dark hours earlier.
		sink.Monitor(rec.Counter("events_dropped_total"), func(err error) {
			fmt.Fprintf(os.Stderr, "obs: events sink failed (%v); dropping subsequent events\n", err)
		})
		rec.SetSink(sink)
		steps = append(steps, sink.Flush)
	}
	if mw != nil {
		steps = append(steps, func() error {
			enc := json.NewEncoder(mw)
			enc.SetIndent("", "  ")
			return enc.Encode(rec.Snapshot())
		})
	}
	return rec, addr, sync.OnceValue(func() error {
		var first error
		for _, step := range steps {
			if err := step(); err != nil && first == nil {
				first = err
			}
		}
		for _, fl := range files {
			if err := fl.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}), nil
}

// serveDebug serves DebugMux(rec) on ln in the background and returns its
// shutdown, which gives in-flight requests 5 s before closing their
// connections. The timeouts are sized for the debug workload: header and
// read limits keep half-open clients from pinning connections, while the
// write timeout stays generous enough for a 30-second
// /debug/pprof/profile stream.
func serveDebug(ln net.Listener, rec *Recorder) (shutdown func() error) {
	srv := &http.Server{
		Handler:           DebugMux(rec),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "obs: debug server:", err)
		}
		served <- err
	}()
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err != nil {
			srv.Close()
		}
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		if err != nil {
			return fmt.Errorf("obs: debug server: %w", err)
		}
		return nil
	}
}

// DebugMux returns the HTTP mux behind the commands' -pprof flag: the
// standard /debug/pprof/ endpoints plus /metrics serving the Recorder's
// live snapshot as JSON (an empty snapshot when r is nil).
func DebugMux(r *Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
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
