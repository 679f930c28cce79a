// Package faultinject provides deterministic, seedable fault points for
// exercising the sweep stack's abort, retry, and drain paths. Production
// code calls Hit(site) at a named fault point; a nil *Injector (the
// default everywhere) makes that a single nil check, and an Injector
// built from a spec string fires a configured fault — an error, a panic,
// or a delay — at an exact hit count or with a seeded probability.
//
// The spec grammar is a comma-separated list of points:
//
//	site:kind:trigger
//
// where kind is "error", "panic", or "delay=<duration>" and trigger is
// either "<n>" (fire at the Nth hit of the site, 1-based, exactly once)
// or "p=<prob>@<seed>" (fire each hit independently with the given
// probability, drawn from a deterministic per-point RNG). Examples:
//
//	sched.job:error:3              third scheduled cell fails
//	sched.job:panic:2              second scheduled cell panics
//	memctrl.partition:error:5      block router fails at its 5th block
//	memctrl.replay:delay=2ms:1     first drained block stalls 2 ms
//	memctrl.replay:error:p=0.01@7  drained blocks fail with p=1% (seed 7)
//
// New rejects any site other than the three wired ones (sched.job,
// memctrl.partition, memctrl.replay), so a misspelt site fails the spec
// instead of never firing.
//
// Hit counts are global per site across goroutines (a shared atomic), so
// an Nth-hit trigger fires exactly once per Injector no matter how many
// workers share the site. Which concurrent caller observes the fault is
// scheduling-dependent; the paths under test must be correct for any of
// them, which is exactly the point.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphene/internal/obs"
)

// Canonical site names for the fault points wired into the repository.
// Tests and CLI specs use these so the strings stay greppable.
const (
	// SiteSchedJob fires inside a scheduler worker just before it runs a
	// job's Do, attributing the fault to that cell.
	SiteSchedJob = "sched.job"

	// SitePartition fires in the memctrl block router each time it hands
	// a block to a bank, before the handoff: once per routed block on
	// memctrl.Run and memctrl.RunBlocks alike, including the partial
	// blocks a generator run flushes at its end.
	SitePartition = "memctrl.partition"

	// SiteReplay fires in a memctrl bank goroutine each time it drains a
	// block, before replaying it.
	SiteReplay = "memctrl.replay"
)

// sites lists every wired site; New accepts no other.
var sites = []string{SiteSchedJob, SitePartition, SiteReplay}

// ErrInjected is the sentinel wrapped by every injected error, so callers
// (tests, retry policies) can classify a failure as synthetic with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// Error is the concrete injected-error type: it names the site and the
// hit count that fired, and unwraps to ErrInjected.
type Error struct {
	Site string
	Hit  int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: %s: injected fault at hit %d", e.Site, e.Hit)
}

func (e *Error) Unwrap() error { return ErrInjected }

// PanicValue is the value an injected panic carries, so recovery layers
// can label it distinctly from organic panics.
type PanicValue struct {
	Site string
	Hit  int64
}

func (p PanicValue) String() string {
	return fmt.Sprintf("faultinject: %s: injected panic at hit %d", p.Site, p.Hit)
}

// kind discriminates what a point does when it fires.
type kind int

const (
	kindError kind = iota
	kindPanic
	kindDelay
)

func (k kind) String() string {
	switch k {
	case kindError:
		return "error"
	case kindPanic:
		return "panic"
	case kindDelay:
		return "delay"
	}
	return "unknown"
}

// point is one configured fault.
type point struct {
	kind  kind
	delay time.Duration

	nth  int64      // fire at this hit count (0 = probabilistic mode)
	p    float64    // per-hit probability (probabilistic mode)
	rng  *rand.Rand // seeded per-point generator (probabilistic mode)
	rmu  sync.Mutex // serializes rng (math/rand.Rand is not goroutine-safe)
	done bool       // an Nth-hit point fires at most once
}

// site is one named fault point location, holding its hit counter and the
// faults configured on it.
type site struct {
	mu     sync.Mutex
	hits   int64
	points []*point
}

// Injector holds a parsed fault plan. The zero value and nil are valid
// and inert; New returns nil for an empty spec so the disabled path costs
// exactly one nil check at every fault point.
type Injector struct {
	sites map[string]*site

	rmu sync.Mutex
	rec *obs.Recorder
}

// New parses a fault spec (see the package comment for the grammar). An
// empty spec returns a nil Injector, which is valid and inert.
func New(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &Injector{sites: map[string]*site{}}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, pt, err := parsePoint(part)
		if err != nil {
			return nil, err
		}
		s, ok := inj.sites[name]
		if !ok {
			s = &site{}
			inj.sites[name] = s
		}
		s.points = append(s.points, pt)
	}
	if len(inj.sites) == 0 {
		return nil, nil
	}
	return inj, nil
}

// parsePoint parses one "site:kind:trigger" clause.
func parsePoint(part string) (string, *point, error) {
	fields := strings.Split(part, ":")
	if len(fields) != 3 {
		return "", nil, fmt.Errorf("faultinject: bad point %q: want site:kind:trigger", part)
	}
	name := strings.TrimSpace(fields[0])
	if !slices.Contains(sites, name) {
		return "", nil, fmt.Errorf("faultinject: bad point %q: unknown site %q (want one of %s)", part, name, strings.Join(sites, ", "))
	}
	pt := &point{}
	switch k := strings.TrimSpace(fields[1]); {
	case k == "error":
		pt.kind = kindError
	case k == "panic":
		pt.kind = kindPanic
	case strings.HasPrefix(k, "delay="):
		d, err := time.ParseDuration(strings.TrimPrefix(k, "delay="))
		if err != nil || d < 0 {
			return "", nil, fmt.Errorf("faultinject: bad point %q: bad delay %q", part, k)
		}
		pt.kind, pt.delay = kindDelay, d
	default:
		return "", nil, fmt.Errorf("faultinject: bad point %q: kind %q (want error, panic, or delay=<dur>)", part, k)
	}
	trig := strings.TrimSpace(fields[2])
	if prob, ok := strings.CutPrefix(trig, "p="); ok {
		pf, seed := prob, "1"
		if at := strings.IndexByte(prob, '@'); at >= 0 {
			pf, seed = prob[:at], prob[at+1:]
		}
		p, err := strconv.ParseFloat(pf, 64)
		if err != nil || p <= 0 || p > 1 {
			return "", nil, fmt.Errorf("faultinject: bad point %q: probability %q (want 0 < p <= 1)", part, pf)
		}
		sd, err := strconv.ParseInt(seed, 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("faultinject: bad point %q: seed %q", part, seed)
		}
		pt.p, pt.rng = p, rand.New(rand.NewSource(sd))
		return name, pt, nil
	}
	n, err := strconv.ParseInt(trig, 10, 64)
	if err != nil || n < 1 {
		return "", nil, fmt.Errorf("faultinject: bad point %q: trigger %q (want a hit count >= 1 or p=<prob>[@seed])", part, trig)
	}
	pt.nth = n
	return name, pt, nil
}

// SetRecorder attaches an observability recorder: every fired fault emits
// one fault_injected event and bumps the faults_injected_total counter.
// Nil-safe on both receiver and argument.
func (inj *Injector) SetRecorder(rec *obs.Recorder) {
	if inj == nil {
		return
	}
	inj.rmu.Lock()
	inj.rec = rec
	inj.rmu.Unlock()
}

// Hit records one pass through the named fault point. It returns an
// injected error, panics with a PanicValue, or sleeps, when a configured
// point fires; otherwise (and always on a nil Injector or a site the spec
// does not name) it returns nil.
func (inj *Injector) Hit(name string) error {
	if inj == nil {
		return nil
	}
	s, ok := inj.sites[name]
	if !ok {
		return nil
	}
	s.mu.Lock()
	s.hits++
	hit := s.hits
	var fire *point
	for _, pt := range s.points {
		if pt.fires(hit) {
			fire = pt
			break
		}
	}
	s.mu.Unlock()
	if fire == nil {
		return nil
	}

	inj.record(name, fire, hit)
	switch fire.kind {
	case kindPanic:
		panic(PanicValue{Site: name, Hit: hit})
	case kindDelay:
		time.Sleep(fire.delay)
		return nil
	default:
		return &Error{Site: name, Hit: hit}
	}
}

// fires decides whether the point triggers at this hit. Called with the
// site lock held.
func (pt *point) fires(hit int64) bool {
	if pt.rng != nil {
		pt.rmu.Lock()
		v := pt.rng.Float64()
		pt.rmu.Unlock()
		return v < pt.p
	}
	if pt.done || hit != pt.nth {
		return false
	}
	pt.done = true
	return true
}

// record reports one fired fault to the attached recorder, if any.
func (inj *Injector) record(name string, pt *point, hit int64) {
	inj.rmu.Lock()
	rec := inj.rec
	inj.rmu.Unlock()
	rec.Counter("faults_injected_total").Inc()
	rec.Emit(obs.Event{
		Kind: obs.KindFaultInjected, Bank: -1,
		Label: name, Detail: pt.kind.String(), Value: hit,
	})
}
