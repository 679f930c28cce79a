package sim

import (
	"fmt"

	"graphene/internal/memctrl"
	"graphene/internal/pagepolicy"
	"graphene/internal/workload"
)

// PolicyCell is one (policy, scheme) measurement from a request-level run.
type PolicyCell struct {
	Policy          string
	Scheme          string
	Requests        int64
	ACTs            int64
	RowBufferHits   float64 // fraction of requests served without an ACT
	RefreshOverhead float64
	NRRCommands     int64 // victim-refresh commands issued
	VictimRows      int64
	Flips           int
}

// PagePolicySweep runs one workload profile at request granularity through
// each row-buffer policy of Table III, with the given scheme protecting
// the banks. It shows the protection-relevant effect of the policy: the
// ACT stream (and with it PARA-style overhead) shrinks with row locality,
// while counter-scheme guarantees are untouched.
func PagePolicySweep(sc Scale, trh int64, profileName, schemeName string, meanBurst int) ([]PolicyCell, error) {
	prof, err := workload.ProfileByName(profileName)
	if err != nil {
		return nil, err
	}
	factory, display, err := BuildScheme(schemeName, trh, 2, 1, sc.Geometry.RowsPerBank, sc)
	if err != nil {
		return nil, err
	}
	mo := func() pagepolicy.Policy {
		p, err := pagepolicy.NewMinimalistOpen(4)
		if err != nil {
			panic(err) // static config, cannot fail
		}
		return p
	}
	policies := []struct {
		name    string
		factory pagepolicy.PolicyFactory
	}{
		{"closed-page", pagepolicy.NewClosedPage},
		{"minimalist-open-4", mo},
		{"open-page", pagepolicy.NewOpenPage},
	}

	var out []PolicyCell
	for _, pol := range policies {
		reqs, err := prof.GenerateRequests(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed, meanBurst)
		if err != nil {
			return nil, err
		}
		fe, err := pagepolicy.NewFrontend(reqs, pol.factory, sc.Geometry.Banks(), sc.Timing)
		if err != nil {
			return nil, err
		}
		res, err := memctrl.Run(memctrl.Config{
			Geometry: sc.Geometry, Timing: sc.Timing,
			Factory: factory, TRH: trh,
		}, fe)
		if err != nil {
			return nil, fmt.Errorf("sim: %s/%s: %w", pol.name, display, err)
		}
		out = append(out, PolicyCell{
			Policy:          pol.name,
			Scheme:          display,
			Requests:        fe.Requests(),
			ACTs:            res.ACTs,
			RowBufferHits:   fe.RowBufferHitRate(),
			RefreshOverhead: res.RefreshOverhead(),
			NRRCommands:     res.NRRCommands,
			VictimRows:      res.RowsVictim,
			Flips:           len(res.Flips),
		})
	}
	return out, nil
}
