package graphene

import (
	"fmt"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
)

// Bank is the per-bank Graphene protection engine: the Misra-Gries table of
// §III plus the periodic reset window of §III-B/§IV-C. It implements
// mitigation.Mitigator.
type Bank struct {
	cfg    Config
	params Params
	table  *Table
	nras   dram.Time // the device's minimum open-row time (RowPress unit)

	windowEnd dram.Time
	resets    int64
	refreshes int64 // victim refreshes issued (NRR commands)
	alerts    int64 // windows in which the spillover alert fired (Fig. 4)

	history []WindowStats // recent completed windows (observability)

	// Observability attachment (nil = the no-op default). The event
	// emission points are the rare edges — window reset, alert rising
	// edge — so the per-ACT hot path pays at most one nil check.
	rec       *obs.Recorder
	obsBank   int
	resetsC   *obs.Counter
	alertsC   *obs.Counter
	occupancy *obs.Histogram
}

var _ mitigation.Mitigator = (*Bank)(nil)
var _ obs.Instrumentable = (*Bank)(nil)

// New builds a Graphene engine for one bank from cfg.
func New(cfg Config) (*Bank, error) {
	cfg = cfg.withDefaults()
	p, err := cfg.Derive()
	if err != nil {
		return nil, err
	}
	tb, err := NewTable(p.NEntry, p.T)
	if err != nil {
		return nil, err
	}
	return &Bank{cfg: cfg, params: p, table: tb, nras: cfg.Timing.NRAS(), windowEnd: p.Window}, nil
}

// Name implements mitigation.Mitigator.
func (b *Bank) Name() string { return fmt.Sprintf("graphene-k%d", b.cfg.K) }

// Params returns the derived operating parameters.
func (b *Bank) Params() Params { return b.params }

// Table exposes the underlying counter table for inspection in tests.
func (b *Bank) Table() *Table { return b.table }

// Resets returns how many reset windows have elapsed.
func (b *Bank) Resets() int64 { return b.resets }

// VictimRefreshes returns the number of NRR commands issued so far.
func (b *Bank) VictimRefreshes() int64 { return b.refreshes }

// Alerts returns how many reset windows raised the spillover alert — the
// Fig. 4 alert signal telling the controller that the observed activation
// rate exceeded the rate the table was sized for. Always zero when the
// configuration's Timing matches the device.
func (b *Bank) Alerts() int64 { return b.alerts }

// SetRecorder implements obs.Instrumentable: it attaches the
// observability recorder (nil detaches) under which the engine emits
// window-reset and spillover-alert events — and, through the table,
// eviction events — tagged with the given flat bank index.
func (b *Bank) SetRecorder(rec *obs.Recorder, bank int) {
	b.rec = rec
	b.obsBank = bank
	b.resetsC = rec.Counter("graphene_window_resets_total")
	b.alertsC = rec.Counter("graphene_spillover_alerts_total")
	b.occupancy = rec.Histogram("graphene_table_occupancy_at_reset")
	b.table.setRecorder(rec, bank, b.Name())
}

// AppendOnActivate implements mitigation.Mitigator: it advances the reset
// window to cover now, feeds the activation to the Misra-Gries table, and
// converts a threshold trigger into a single in-place append of a
// ±Distance victim refresh (§III-B, §III-D) — the hot path allocates
// nothing of its own.
func (b *Bank) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	b.advanceWindow(now)
	trigger, alertEdge := b.table.ObserveW(row, 1)
	if alertEdge {
		b.raiseAlert(now)
	}
	if trigger {
		dst = b.refresh(dst, row)
	}
	return dst
}

// AppendOnActivateBatch implements mitigation.Mitigator — the fused batch
// path of DESIGN.md §11. The run is sliced at reset-window boundaries
// (windows depend only on now, never on the rows), and the batch stops at
// the first trigger exactly as the contract requires. A window slice
// streams through Table.ObserveRun's hoisted Misra-Gries loop whole when
// there is no dwell column or Config.Rowpress is off; otherwise
// minimum-dwell spans (increment 1) still stream through ObserveRun and
// only ACTs whose dwell exceeds nRAS pay the weighted ObserveW call — one
// victim refresh per triggering ACT regardless of how many multiples of T
// the increment crossed, since a single NRR already restores every
// neighbor's full charge. A spillover-alert rising edge also ends an
// ObserveRun — the table can't know event times — so the alert is emitted
// here at the edge ACT's timestamp and the run resumes; every counter,
// event, and append is byte-identical to feeding the same ACTs through
// AppendOnActivate.
func (b *Bank) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	if !b.cfg.Rowpress {
		dwell = nil
	}
	nras := b.nras
	i, n := 0, len(rows)
	for i < n {
		b.advanceWindow(now[i])
		j := i + 1
		for j < n && now[j] < b.windowEnd {
			j++
		}
		for i < j {
			var trigger, alertEdge bool
			if dwell == nil || dwell[i] <= nras {
				k := j
				if dwell != nil {
					k = i + 1
					for k < j && dwell[k] <= nras {
						k++
					}
				}
				var consumed int
				consumed, trigger, alertEdge = b.table.ObserveRun(rows[i:k])
				i += consumed
			} else {
				trigger, alertEdge = b.table.ObserveW(int(rows[i]), mitigation.RowpressIncrement(dwell[i], nras))
				i++
			}
			if alertEdge {
				b.raiseAlert(now[i-1])
			}
			if trigger {
				return b.refresh(dst, int(rows[i-1])), i
			}
		}
	}
	return dst, n
}

// advanceWindow closes every reset window that ended at or before now
// (§III-B, §IV-C): the table restarts empty each tREFW/K. It stays small
// enough to inline, so the common no-boundary case costs one compare.
func (b *Bank) advanceWindow(now dram.Time) {
	for now >= b.windowEnd {
		b.closeWindow()
	}
}

// closeWindow records the ending window and resets the table for the next.
func (b *Bank) closeWindow() {
	b.snapshotWindow()
	b.table.Reset()
	b.windowEnd += b.params.Window
	b.resets++
}

// raiseAlert records the spillover alert's rising edge — once per window,
// at the timestamp of the ACT that raised it.
func (b *Bank) raiseAlert(now dram.Time) {
	b.alerts++
	b.alertsC.Inc()
	if b.rec != nil {
		b.rec.Emit(obs.Event{
			Kind: obs.KindSpillAlert, Scheme: b.Name(), Bank: b.obsBank,
			Time: int64(now), Value: b.table.Spillover(),
		})
	}
}

// refresh appends the ±Distance victim refresh of a triggering row.
func (b *Bank) refresh(dst []mitigation.VictimRefresh, row int) []mitigation.VictimRefresh {
	b.refreshes++
	return append(dst, mitigation.VictimRefresh{Aggressor: row, Distance: b.cfg.Distance})
}

// AppendTick implements mitigation.Mitigator; Graphene takes no
// refresh-time action.
func (b *Bank) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	return dst
}

// Cost implements mitigation.Mitigator: the whole table is CAM (address CAM
// + count CAM, Fig. 4), 2,511 bits per bank for the paper's K = 2
// configuration (Table IV).
func (b *Bank) Cost() mitigation.HardwareCost {
	return mitigation.HardwareCost{
		Entries: b.params.NEntry,
		CAMBits: b.params.TableBits,
	}
}

// Factory returns a mitigation.Factory building identical Graphene engines.
func Factory(cfg Config) mitigation.Factory {
	return func() (mitigation.Mitigator, error) { return New(cfg) }
}
