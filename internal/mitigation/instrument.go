package mitigation

import (
	"graphene/internal/dram"
	"graphene/internal/obs"
)

// Instrumented wraps any Mitigator with the shared observability hooks,
// so every scheme — Graphene, PARA, TWiCe, TRR, CBT, stacks — reports the
// same event vocabulary without per-scheme instrumentation:
//
//   - one obs.KindNRR event per victim-refresh command the scheme
//     requests, from OnActivate and Tick alike;
//   - the "nrr_commands_total" / "victim_rows_total" / "acts_observed_total"
//     counters, which match the memory controller's end-of-run summary
//     (Result.NRRCommands / Result.RowsVictim / Result.ACTs) exactly;
//   - the "acts_between_nrrs" histogram: per bank, how many ACTs elapsed
//     between consecutive victim-refresh commands — the live view of how
//     hard the scheme is working.
//
// Scheme-internal events (Graphene's window resets, spillover alerts, and
// table evictions) are emitted by the engines themselves through
// obs.Instrumentable; the memory controller attaches the recorder before
// wrapping.
type Instrumented struct {
	inner    Mitigator
	rec      *obs.Recorder
	bank     int
	bankRows int
	scheme   string

	acts int64 // ACTs observed since the last NRR command

	nrrs  *obs.Counter
	rows  *obs.Counter
	actsC *obs.Counter
	gap   *obs.Histogram
}

var _ Mitigator = (*Instrumented)(nil)

// Instrument wraps m so its mitigation decisions are reported to rec.
// bank is the engine's flat bank index; bankRows sizes edge clamping for
// the rows-refreshed accounting (matching dram.Bank's NRR row counts).
// A nil rec yields a functional but silent wrapper; callers normally only
// wrap when observability is enabled.
func Instrument(m Mitigator, rec *obs.Recorder, bank, bankRows int) *Instrumented {
	return &Instrumented{
		inner: m, rec: rec, bank: bank, bankRows: bankRows,
		scheme: m.Name(),
		nrrs:   rec.Counter("nrr_commands_total"),
		rows:   rec.Counter("victim_rows_total"),
		actsC:  rec.Counter("acts_observed_total"),
		gap:    rec.Histogram("acts_between_nrrs"),
	}
}

// Unwrap returns the wrapped Mitigator.
func (w *Instrumented) Unwrap() Mitigator { return w.inner }

// Name implements Mitigator.
func (w *Instrumented) Name() string { return w.inner.Name() }

// AppendOnActivate implements Mitigator: it forwards to the wrapped scheme
// and reports whatever it appended — the dst[pre:] tail, so refreshes a
// caller (an outer Stack) accumulated from other layers are never
// double-counted.
func (w *Instrumented) AppendOnActivate(dst []VictimRefresh, row int, now dram.Time) []VictimRefresh {
	w.actsC.Inc()
	w.acts++
	pre := len(dst)
	dst = w.inner.AppendOnActivate(dst, row, now)
	if len(dst) > pre {
		w.report(dst[pre:], now)
	}
	return dst
}

// AppendOnActivateBatch implements Mitigator: the batch forwards to the
// wrapped scheme whole, and the per-ACT counter work is amortized to one
// atomic add per run — the "acts_observed_total" counter and the
// ACTs-between-NRRs accumulator advance by the consumed count instead of
// once per ACT, so an instrumented batch replay stays within noise of an
// uninstrumented one (the DESIGN.md §7 overhead contract, re-pinned for
// the batch path). Reported events and histogram observations are
// identical to the scalar path: appends only ever come from the last
// consumed ACT, whose time is now[n-1].
func (w *Instrumented) AppendOnActivateBatch(dst []VictimRefresh, rows []int32, now, dwell []dram.Time) ([]VictimRefresh, int) {
	pre := len(dst)
	dst, n := w.inner.AppendOnActivateBatch(dst, rows, now, dwell)
	w.actsC.Add(int64(n))
	w.acts += int64(n)
	if len(dst) > pre {
		w.report(dst[pre:], now[n-1])
	}
	return dst, n
}

// AppendTick implements Mitigator: refresh-time victim refreshes (TWiCe
// pruning-triggered, PRoHIT piggybacked) report through the same path as
// activation-triggered ones.
func (w *Instrumented) AppendTick(dst []VictimRefresh, now dram.Time) []VictimRefresh {
	pre := len(dst)
	dst = w.inner.AppendTick(dst, now)
	if len(dst) > pre {
		w.report(dst[pre:], now)
	}
	return dst
}

// report emits one KindNRR event per victim-refresh command and feeds the
// counters and the ACTs-between-NRRs histogram.
func (w *Instrumented) report(vrs []VictimRefresh, now dram.Time) {
	for _, vr := range vrs {
		n := int64(vr.RowCount(w.bankRows))
		w.nrrs.Inc()
		w.rows.Add(n)
		w.gap.Observe(w.acts)
		w.acts = 0
		ev := obs.Event{
			Kind: obs.KindNRR, Scheme: w.scheme, Bank: w.bank,
			Time: int64(now), Value: n,
		}
		if vr.Explicit() {
			if len(vr.Rows) > 0 {
				ev.Row = vr.Rows[0]
			}
		} else {
			ev.Row = vr.Aggressor
		}
		w.rec.Emit(ev)
	}
}

// Cost implements Mitigator.
func (w *Instrumented) Cost() HardwareCost { return w.inner.Cost() }

// ExtraDRAMAccesses forwards the wrapped scheme's extra-traffic counter
// (zero when the scheme is self-contained), so wrapping never hides the
// optional interface from the memory controller's accounting.
func (w *Instrumented) ExtraDRAMAccesses() int64 {
	if x, ok := w.inner.(interface{ ExtraDRAMAccesses() int64 }); ok {
		return x.ExtraDRAMAccesses()
	}
	return 0
}
