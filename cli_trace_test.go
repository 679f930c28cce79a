package graphene

import (
	"encoding/csv"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphene/internal/stats"
)

// TestRecordedTraceOverheadAgreesAcrossCommands records the S3 attack the
// way the README does (rhtrace -record S3 -windows 0.05 -to binary), then
// replays the file through rhsim -trace and rhsweep -sweep trace. Both
// must replay it on the one bank it touches, so the Graphene refresh
// overhead rhsweep prints equals the one rhsim prints.
func TestRecordedTraceOverheadAgreesAcrossCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three commands")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	dir := t.TempDir()
	build := exec.Command(gobin, "build", "-o", dir+string(filepath.Separator), "./cmd/rhtrace", "./cmd/rhsim", "./cmd/rhsweep")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := func(name string, args ...string) string {
		t.Helper()
		c := exec.Command(filepath.Join(dir, name), args...)
		var stderr strings.Builder
		c.Stderr = &stderr
		out, err := c.Output()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, stderr.String())
		}
		return string(out)
	}
	path := filepath.Join(dir, "s3.bin")
	cmd("rhtrace", "-record", "S3", "-windows", "0.05", "-to", "binary", "-o", path)

	var simPct string
	for _, line := range strings.Split(cmd("rhsim", "-trace", path), "\n") {
		if rest, ok := strings.CutPrefix(line, "refresh overhead"); ok {
			simPct = strings.TrimSpace(rest)
		}
	}
	if simPct == "" {
		t.Fatal("rhsim printed no refresh overhead line")
	}

	recs, err := csv.NewReader(strings.NewReader(cmd("rhsweep", "-sweep", "trace", "-traces", path))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sweepPct := ""
	for _, r := range recs {
		if len(r) > 2 && r[0] == "S3" && r[1] == "Graphene" {
			pct, err := strconv.ParseFloat(r[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			sweepPct = stats.Pct(pct / 100)
		}
	}
	if sweepPct != simPct {
		t.Errorf("rhsweep -sweep trace prints Graphene overhead %q, rhsim -trace %q", sweepPct, simPct)
	}
}
