package faultinject

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"graphene/internal/obs"
)

func TestNilAndEmptyInjectorAreInert(t *testing.T) {
	var nilInj *Injector
	if err := nilInj.Hit(SiteSchedJob); err != nil {
		t.Fatalf("nil injector Hit = %v", err)
	}
	nilInj.SetRecorder(obs.New()) // must not panic

	inj, err := New("   ")
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		t.Fatalf("empty spec should parse to a nil Injector, got %+v", inj)
	}
}

func TestFaultInjectErrorAtNthHit(t *testing.T) {
	inj, err := New("sched.job:error:3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		err := inj.Hit(SiteSchedJob)
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
			}
			var fe *Error
			if !errors.As(err, &fe) || fe.Site != SiteSchedJob || fe.Hit != 3 {
				t.Fatalf("hit %d: error detail = %+v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hit %d: err = %v, want nil (Nth-hit faults fire once)", i, err)
		}
	}
	// Unknown sites never fire.
	if err := inj.Hit("no.such.site"); err != nil {
		t.Fatalf("unknown site: %v", err)
	}
}

func TestFaultInjectPanicCarriesSiteAndHit(t *testing.T) {
	inj, err := New("sched.job:panic:1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok || pv.Site != SiteSchedJob || pv.Hit != 1 {
			t.Fatalf("recovered %#v, want PanicValue{sched.job, 1}", r)
		}
		if !strings.Contains(pv.String(), "injected panic") {
			t.Fatalf("PanicValue string = %q", pv.String())
		}
	}()
	inj.Hit(SiteSchedJob)
	t.Fatal("injected panic did not fire")
}

func TestFaultInjectDelayWaits(t *testing.T) {
	inj, err := New("memctrl.replay:delay=30ms:1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := inj.Hit(SiteReplay); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay fault waited only %v", d)
	}
	if err := inj.Hit(SiteReplay); err != nil {
		t.Fatal(err)
	}
}

func TestFaultInjectProbabilisticIsSeededAndDeterministic(t *testing.T) {
	fire := func() []int {
		inj, err := New("memctrl.replay:error:p=0.25@42")
		if err != nil {
			t.Fatal(err)
		}
		var hits []int
		for i := 1; i <= 200; i++ {
			if inj.Hit(SiteReplay) != nil {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := fire(), fire()
	if len(a) == 0 {
		t.Fatal("p=0.25 over 200 hits never fired")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed fired %d vs %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestFaultInjectNthHitFiresOnceAcrossGoroutines(t *testing.T) {
	inj, err := New("sched.job:error:50")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if inj.Hit(SiteSchedJob) != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("Nth-hit fault fired %d times across goroutines, want 1", fired)
	}
}

func TestFaultInjectRecorderSeesFiredFaults(t *testing.T) {
	inj, err := New("sched.job:error:2")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	var sink obs.Collect
	rec.SetSink(&sink)
	inj.SetRecorder(rec)
	inj.Hit(SiteSchedJob)
	inj.Hit(SiteSchedJob)
	if got := rec.Snapshot().Counters["faults_injected_total"]; got != 1 {
		t.Fatalf("faults_injected_total = %d, want 1", got)
	}
	events := sink.Events()
	if len(events) != 1 || events[0].Kind != obs.KindFaultInjected ||
		events[0].Label != SiteSchedJob || events[0].Value != 2 || events[0].Detail != "error" {
		t.Fatalf("events = %+v", events)
	}
}

func TestFaultInjectSpecErrors(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"sched.job", "want site:kind:trigger"},
		{"sched.job:error", "want site:kind:trigger"},
		{"sched.job:explode:1", `kind "explode"`},
		{"sched.job:error:0", `trigger "0"`},
		{"sched.job:error:-2", `trigger "-2"`},
		{"sched.job:error:p=1.5", `probability "1.5"`},
		{"sched.job:error:p=0", `probability "0"`},
		{"sched.job:error:p=0.5@notanint", `seed "notanint"`},
		{"sched.job:delay=bogus:1", `bad delay "delay=bogus"`},
		{"sched.job:delay=-5ms:1", `bad delay "delay=-5ms"`},
		{":error:1", `unknown site ""`},
		// A site no code passes through would never fire, so the error
		// names the wired ones instead.
		{"sched.jobs:error:1", `unknown site "sched.jobs" (want one of sched.job, memctrl.partition, memctrl.replay)`},
		{"trace.read:error:3", `unknown site "trace.read"`},
		{"memctrl.replay:error:1,memctrl.partiton:error:2", `unknown site "memctrl.partiton"`},
	} {
		_, err := New(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%q) = %v, want an error naming %s", tc.spec, err, tc.want)
		}
	}
}

func TestFaultInjectMultiplePointsAndSites(t *testing.T) {
	inj, err := New("sched.job:error:1, memctrl.replay:error:2, sched.job:error:3")
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Hit(SiteSchedJob); !errors.Is(err, ErrInjected) {
		t.Fatalf("sched.job hit 1: %v", err)
	}
	if err := inj.Hit(SiteSchedJob); err != nil {
		t.Fatalf("sched.job hit 2: %v", err)
	}
	if err := inj.Hit(SiteSchedJob); !errors.Is(err, ErrInjected) {
		t.Fatalf("sched.job hit 3: %v", err)
	}
	if err := inj.Hit(SiteReplay); err != nil {
		t.Fatalf("memctrl.replay hit 1: %v", err)
	}
	if err := inj.Hit(SiteReplay); !errors.Is(err, ErrInjected) {
		t.Fatalf("memctrl.replay hit 2: %v", err)
	}
}
