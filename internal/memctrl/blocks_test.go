package memctrl

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"graphene/internal/faultinject"
	"graphene/internal/trace"
)

// blockSourceFor encodes gen into the binary trace format and returns a
// block reader over it — the ingest path RunBlocks consumes in production.
func blockSourceFor(t testing.TB, gen trace.Generator) *trace.BlockReader {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, gen); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewBlockReader: %v", err)
	}
	return br
}

// TestBlockDirectMatchesBuffered is the gate on the block-direct ingest
// path: over every differential fixture, replaying the binary-encoded
// trace through RunBlocks must produce a Result byte-identical to the
// buffered oracle (and, transitively, the streaming path — stream_test.go
// pins those two together over the same fixtures).
func TestBlockDirectMatchesBuffered(t *testing.T) {
	for _, tc := range diffCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := runBuffered(tc.mkCfg(), tc.mkGen())
			if err != nil {
				t.Fatalf("buffered: %v", err)
			}
			got, err := RunBlocks(tc.mkCfg(), blockSourceFor(t, tc.mkGen()))
			if err != nil {
				t.Fatalf("block-direct: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("block-direct result diverges from buffered:\n got %+v\nwant %+v", got, want)
			}
			checkRFM(t, tc.mkCfg(), got)
		})
	}
}

// TestBlockDirectErrorBehaviorMatchesBuffered: accesses that fit the trace
// codec's limits but not the configured geometry must fail RunBlocks with
// exactly the buffered path's error text, whether the bank job (row out of
// range) or the router (bank out of range) catches them.
func TestBlockDirectErrorBehaviorMatchesBuffered(t *testing.T) {
	cfg := Config{Geometry: oneBank(64), Timing: smallTiming()}
	bad := []struct {
		name string
		accs []trace.Access
	}{
		{"bank", []trace.Access{{Bank: 0, Row: 1}, {Bank: 5, Row: 0}}},
		{"row", []trace.Access{{Bank: 0, Row: 1}, {Bank: 0, Row: 64}}},
	}
	for _, tc := range bad {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, berr := runBuffered(cfg, trace.FromSlice("bad", tc.accs))
			_, kerr := RunBlocks(cfg, blockSourceFor(t, trace.FromSlice("bad", tc.accs)))
			if berr == nil || kerr == nil {
				t.Fatalf("invalid access accepted: buffered=%v blocks=%v", berr, kerr)
			}
			if berr.Error() != kerr.Error() {
				t.Errorf("error text diverges:\n buffered: %v\n blocks:   %v", berr, kerr)
			}
		})
	}
}

// TestBlockDirectPartitionFaultDrains: an injected fault at the router's
// per-block handoff must fail the run with the injected error and the bank
// jobs must drain without deadlock — blocks keep recycling after the
// channels close.
func TestBlockDirectPartitionFaultDrains(t *testing.T) {
	accs := make([]trace.Access, 0, 120_000)
	for i := 0; i < 120_000; i++ {
		accs = append(accs, trace.Access{Bank: i % 8, Row: i % 64})
	}
	geo := oneBank(64)
	geo.BanksPerRank = 8
	inj, err := faultinject.New("memctrl.partition:error:4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Geometry: geo, Timing: smallTiming(), Fault: inj}

	done := make(chan error, 1)
	go func() {
		_, err := RunBlocks(cfg, blockSourceFor(t, trace.FromSlice("fault", accs)))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("err = %v, want the injected partition fault", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("block-direct replay deadlocked after router fault")
	}
}

// TestBlockDirectDecodeErrorPropagates: a binary stream whose tail is torn
// mid-replay must fail the run with the decode error, not return a
// silently short Result.
func TestBlockDirectDecodeErrorPropagates(t *testing.T) {
	accs := make([]trace.Access, 0, 150_000)
	for i := 0; i < 150_000; i++ {
		accs = append(accs, trace.Access{Bank: i % 4, Row: i % 64})
	}
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, trace.FromSlice("torn", accs)); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()*2/3]
	br, err := trace.NewBlockReader(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	geo := oneBank(64)
	geo.BanksPerRank = 4
	cfg := Config{Geometry: geo, Timing: smallTiming()}

	done := make(chan error, 1)
	go func() {
		res, err := RunBlocks(cfg, br)
		if err == nil && res.ACTs != int64(len(accs)) {
			err = errors.New("torn trace replayed short without error")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("torn binary tail did not fail the run")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("block-direct replay deadlocked on torn tail")
	}
}
