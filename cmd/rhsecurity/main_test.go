package main

import (
	"strings"
	"testing"
)

func TestRunAnalyticOnly(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 1, 1200, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"§V-A", "0.00145", "0.05034"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
	if strings.Contains(out, "Monte-Carlo") {
		t.Error("-mc=false still printed the Monte-Carlo section")
	}
}

func TestRunWithMonteCarlo(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 3, 1200, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Monte-Carlo failure rates",
		"PARA vs single-row",
		"PRoHIT vs Fig.7(a)",
		"MRLoc vs Fig.7(b)",
		"TRR vs single-row",
		"TRR vs TRRespass-8",
		"Graphene vs Fig.7(a)",
		"RowPress (DDR5-4800",
		"Graphene (rowpress)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
	// RowPress headline: the duration-blind rows flip, the dwell-weighted
	// Graphene does not.
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "none (unprotected)"),
			strings.Contains(line, "Graphene (duration-blind)"):
			if strings.Fields(line)[len(strings.Fields(line))-2] == "0" {
				t.Errorf("duration-blind RowPress line shows no flips: %q", line)
			}
		case strings.Contains(line, "Graphene (rowpress)"):
			f := strings.Fields(line)
			if f[len(f)-2] != "0" {
				t.Errorf("rowpress Graphene line shows flips: %q", line)
			}
		}
	}
	// The headline claims must hold even at 3 trials: Graphene rows and
	// TRR against the single-row hammer report 0 failures, TRR under
	// TRRespass fails at least once, PRoHIT-vs-7(a) reports all-failures.
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "Graphene vs"), strings.Contains(line, "TRR vs single-row"):
			if !strings.Contains(line, " 0/3") {
				t.Errorf("line shows failures: %q", line)
			}
		case strings.Contains(line, "TRR vs TRRespass-8"):
			if strings.Contains(line, " 0/3") {
				t.Errorf("TRRespass line shows no failures: %q", line)
			}
		case strings.Contains(line, "PRoHIT vs Fig.7(a)"):
			if !strings.Contains(line, " 3/3") {
				t.Errorf("PRoHIT Fig.7(a) line not all-failing: %q", line)
			}
		}
	}
}

func TestRunRejectsBadTRH(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 1, -5, true); err == nil {
		t.Error("accepted negative TRH")
	}
}
