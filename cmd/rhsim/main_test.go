package main

import (
	"os"
	"path/filepath"

	"graphene/internal/sim"
	"graphene/internal/trace"
	"strings"
	"testing"
)

func TestRunProtectedAttack(t *testing.T) {
	var sb strings.Builder
	flipped, err := run(&sb, nil, options{
		workload: "S3", scheme: "graphene", trh: 50000,
		k: 2, distance: 1, acts: 10_000, windows: 0.05, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if flipped {
		t.Error("Graphene flipped under S3")
	}
	out := sb.String()
	for _, want := range []string{"graphene-k2", "bit flips          none", "2511 CAM"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunUnprotectedAttackFlips(t *testing.T) {
	var sb strings.Builder
	flipped, err := run(&sb, nil, options{
		workload: "S3", scheme: "none", trh: 50000,
		k: 2, distance: 1, acts: 10_000, windows: 0.2, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Error("unprotected full hammer did not flip")
	}
	if !strings.Contains(sb.String(), "PROTECTION FAILED") {
		t.Error("flip report missing")
	}
}

func TestRunProfileWorkload(t *testing.T) {
	var sb strings.Builder
	flipped, err := run(&sb, nil, options{
		workload: "mix-blend", scheme: "twice", trh: 50000,
		k: 2, distance: 1, acts: 20_000, windows: 0.1, seed: 1,
	})
	if err != nil || flipped {
		t.Fatalf("flipped=%v err=%v", flipped, err)
	}
	if !strings.Contains(sb.String(), "victim refreshes   0 commands") {
		t.Errorf("TWiCe refreshed on a normal workload:\n%s", sb.String())
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	var sb strings.Builder
	if _, err := run(&sb, nil, options{workload: "nope", scheme: "graphene", trh: 50000, k: 2, distance: 1, acts: 10, windows: 0.01, seed: 1}); err == nil {
		t.Error("accepted unknown workload")
	}
	if _, err := run(&sb, nil, options{workload: "S3", scheme: "nope", trh: 50000, k: 2, distance: 1, acts: 10, windows: 0.01, seed: 1}); err == nil {
		t.Error("accepted unknown scheme")
	}
	if _, err := run(&sb, nil, options{workload: "S3", scheme: "graphene", trh: 50000, k: 2, distance: 1, acts: 10, windows: 0.01, seed: 1, faults: "sched.jobs:error:1"}); err == nil {
		t.Error("accepted a fault site nothing passes through")
	}
}

func TestRunCRAReportsExtraTraffic(t *testing.T) {
	var sb strings.Builder
	if _, err := run(&sb, nil, options{
		workload: "S1-20", scheme: "cra", trh: 50000,
		k: 2, distance: 1, acts: 10_000, windows: 0.02, seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "extra DRAM traffic") {
		t.Errorf("CRA extra traffic not reported:\n%s", sb.String())
	}
}

func TestRunRecordedTrace(t *testing.T) {
	// -trace replays a recorded file (here binary) instead of a named
	// workload; workload/name in the report comes from the trace header.
	dir := t.TempDir()
	path := filepath.Join(dir, "s3.bin")
	sc := sim.Quick()
	sc.WorkloadAccesses = 10_000
	sc.AdversarialWindows = 0.05
	gen, _, err := sim.BuildWorkload("S3", sc, 50000)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteBinary(f, gen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	flipped, err := run(&sb, nil, options{
		trace: path, scheme: "graphene", trh: 50000,
		k: 2, distance: 1, acts: 10_000, windows: 0.05, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if flipped {
		t.Error("Graphene flipped replaying recorded S3")
	}
	out := sb.String()
	for _, want := range []string{"workload           S3", "graphene-k2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// The recording replays on the one bank the S3 workload runs on, so
	// refresh accounting matches the -workload run line for line.
	var direct strings.Builder
	if _, err := run(&direct, nil, options{
		workload: "S3", scheme: "graphene", trh: 50000,
		k: 2, distance: 1, acts: 10_000, windows: 0.05, seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"auto-refresh rows", "refresh overhead"} {
		got, want := reportLine(out, prefix), reportLine(direct.String(), prefix)
		if want == "" || got != want {
			t.Errorf("-trace reports %q, -workload S3 reports %q", got, want)
		}
	}

	if _, err := run(&strings.Builder{}, nil, options{
		trace: filepath.Join(dir, "absent.trace"), scheme: "graphene", trh: 50000,
		k: 2, distance: 1,
	}); err == nil {
		t.Error("accepted a missing trace file")
	}
}

// reportLine returns the report line that starts with prefix, or "".
func reportLine(report, prefix string) string {
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}
