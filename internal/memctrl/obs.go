package memctrl

import (
	"graphene/internal/dram"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
)

// bankObs is one bank's share of the observability layer (Config.Obs,
// DESIGN.md §7). Schemes only name victim rows and the controller applies
// the refreshes, so the controller reports them: report runs after each
// mitigator call (replayRun's batch, replayOne's ACT, catchUpREF's tick),
// which keeps the nrr events and counters equal to Result's totals by
// construction.
type bankObs struct {
	rec    *obs.Recorder
	bank   int
	rows   int    // bank rows, for the edge-clamped RowCount
	scheme string // the engine's Name, read once; "none" when unprotected
	acts   int64  // ACTs observed since the last victim-refresh command

	nrrs, victimRows, actsSeen *obs.Counter
	gap                        *obs.Histogram
}

// newBankObs returns bank's observability state, or nil when rec is nil.
// The victim-refresh counters are registered only for a protected bank
// (m non-nil), so an unprotected run counts nothing.
func newBankObs(rec *obs.Recorder, bank, rows int, m mitigation.Mitigator) *bankObs {
	if rec == nil {
		return nil
	}
	o := &bankObs{rec: rec, bank: bank, rows: rows, scheme: "none"}
	if m != nil {
		if ir, ok := m.(obs.Instrumentable); ok {
			ir.SetRecorder(rec, bank)
		}
		o.scheme = m.Name()
		o.nrrs = rec.Counter("nrr_commands_total")
		o.victimRows = rec.Counter("victim_rows_total")
		o.actsSeen = rec.Counter("acts_observed_total")
		o.gap = rec.Histogram("acts_between_nrrs")
	}
	return o
}

// report accounts one mitigator call that fed acts ACTs and returned vrs:
// one nrr event per victim-refresh command at time now, the three
// counters, and the acts_between_nrrs histogram. A batch call's refreshes
// all come from its last consumed ACT, so now is that ACT's start time.
func (o *bankObs) report(vrs []mitigation.VictimRefresh, acts int, now dram.Time) {
	o.actsSeen.Add(int64(acts))
	o.acts += int64(acts)
	for _, vr := range vrs {
		n := int64(vr.RowCount(o.rows))
		o.nrrs.Inc()
		o.victimRows.Add(n)
		o.gap.Observe(o.acts)
		o.acts = 0
		ev := obs.Event{
			Kind: obs.KindNRR, Scheme: o.scheme, Bank: o.bank,
			Time: int64(now), Value: n,
		}
		if vr.Explicit() {
			if len(vr.Rows) > 0 {
				ev.Row = vr.Rows[0]
			}
		} else {
			ev.Row = vr.Aggressor
		}
		o.rec.Emit(ev)
	}
}
