package hammer

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// denseOracle is the reference model for the chunked Oracle: one
// accumulator, latch and latch tick per row of the bank, allocated up
// front, with the same update, refresh and reporting rules.
type denseOracle struct {
	rows    int
	trh     float64
	mu      []float64
	nras    dram.Time
	disturb []float64
	flipped []bool
	flipAt  []dram.Time
	flips   []Flip
}

func newDenseOracle(rows int, trh int64, distance int, mu mitigation.MuModel, nras dram.Time) *denseOracle {
	d := &denseOracle{
		rows: rows, trh: float64(trh), nras: nras,
		disturb: make([]float64, rows), flipped: make([]bool, rows), flipAt: make([]dram.Time, rows),
	}
	for i := 1; i <= distance; i++ {
		d.mu = append(d.mu, mu(i))
	}
	return d
}

func (o *denseOracle) activate(row int, now, dwell dram.Time) []Flip {
	weight := 1.0
	if dwell != 0 && o.nras > 0 {
		weight = float64(dwell) / float64(o.nras)
	}
	var out []Flip
	for d := 1; d <= len(o.mu); d++ {
		for _, v := range [2]int{row - d, row + d} {
			if v < 0 || v >= o.rows {
				continue
			}
			o.disturb[v] += o.mu[d-1] * weight
			if o.disturb[v] >= o.trh && !o.flipped[v] {
				o.flipped[v], o.flipAt[v] = true, now
				f := Flip{Victim: v, At: now, Disturbance: o.disturb[v]}
				o.flips = append(o.flips, f)
				out = append(out, f)
			}
		}
	}
	return out
}

func (o *denseOracle) refreshAt(row int, now dram.Time, keepAtTick bool) {
	o.disturb[row] = 0
	if keepAtTick && o.flipped[row] && now <= o.flipAt[row] {
		return
	}
	o.flipped[row] = false
}

func (o *denseOracle) reset() {
	clear(o.disturb)
	clear(o.flipped)
	clear(o.flipAt)
	o.flips = nil
}

func (o *denseOracle) maxDisturbance() (row int, d float64) {
	for i, v := range o.disturb {
		if v > d {
			row, d = i, v
		}
	}
	return row, d
}

func (o *denseOracle) topVictims(n int) []VictimReport {
	top := make([]VictimReport, 0, n+1)
	for row, d := range o.disturb {
		if d == 0 {
			continue
		}
		i := len(top)
		for i > 0 && top[i-1].Disturbance < d {
			i--
		}
		if i >= n {
			continue
		}
		top = append(top, VictimReport{})
		copy(top[i+1:], top[i:])
		top[i] = VictimReport{Row: row, Disturbance: d}
		if len(top) > n {
			top = top[:n]
		}
	}
	return top
}

// TestChunkedOracleMatchesDense replays seeded operation sequences through
// the Oracle and the dense reference: ACTs with dwell weights around rows
// 0, rows−1 and every chunk edge, at distances 1–4, mixed with RefreshRow,
// RefreshRowAt (including at the exact tick a victim latched) and Reset.
// Every returned flip must match, and at checkpoints every row's
// disturbance, the flip log, MaxDisturbance and TopVictims.
func TestChunkedOracleMatchesDense(t *testing.T) {
	const nras = 100
	for _, tc := range []struct {
		rows, distance int
		mu             mitigation.MuModel
	}{
		{3*chunkRows + 17, 1, mitigation.UniformMu},
		{2 * chunkRows, 2, mitigation.InverseSquareMu},
		{chunkRows + 1, 3, mitigation.UniformMu},
		{100, 4, mitigation.InverseSquareMu},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("rows=%d/dist=%d/seed=%d", tc.rows, tc.distance, seed), func(t *testing.T) {
				differentialRun(t, tc.rows, tc.distance, tc.mu, nras, seed)
			})
		}
	}
}

func differentialRun(t *testing.T, rows, distance int, mu mitigation.MuModel, nras dram.Time, seed int64) {
	const trh = 24
	o := mustOracle(t, rows, trh, distance, mu)
	o.SetNRAS(nras)
	ref := newDenseOracle(rows, trh, distance, mu, nras)
	rng := rand.New(rand.NewSource(seed))

	// Hot rows: both bank edges and both sides of every chunk boundary.
	hot := []int{0, rows - 1}
	for b := chunkRows; b < rows; b += chunkRows {
		hot = append(hot, b-1, b)
	}
	pick := func() int {
		r := hot[rng.Intn(len(hot))] + rng.Intn(2*distance+3) - distance - 1
		return min(max(r, 0), rows-1)
	}
	dwells := []dram.Time{0, 0, nras, nras / 2, 3 * nras, 7 * nras / 4}

	var now dram.Time
	var latched []Flip // flips recorded since the last Reset
	flips, atTick := 0, 0
	check := func(step int) {
		t.Helper()
		for r := 0; r < rows; r++ {
			if got, want := o.Disturbance(r), ref.disturb[r]; got != want {
				t.Fatalf("step %d: Disturbance(%d) = %v, want %v", step, r, got, want)
			}
		}
		if !reflect.DeepEqual(o.Flips(), ref.flips) {
			t.Fatalf("step %d: Flips = %v, want %v", step, o.Flips(), ref.flips)
		}
		gr, gd := o.MaxDisturbance()
		wr, wd := ref.maxDisturbance()
		if gr != wr || gd != wd {
			t.Fatalf("step %d: MaxDisturbance = (%d, %v), want (%d, %v)", step, gr, gd, wr, wd)
		}
		for _, n := range []int{1, 3, 10} {
			if got, want := o.TopVictims(n), ref.topVictims(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: TopVictims(%d) = %v, want %v", step, n, got, want)
			}
		}
	}

	for step := 0; step < 3000; step++ {
		if rng.Intn(3) == 0 {
			now += dram.Time(rng.Intn(3))
		}
		switch p := rng.Intn(100); {
		case p < 80:
			row, dwell := pick(), dwells[rng.Intn(len(dwells))]
			got := o.AppendActivateOpen(nil, row, now, dwell)
			want := ref.activate(row, now, dwell)
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: ACT row %d returned flips %v, want %v", step, row, got, want)
				}
			}
			latched = append(latched, got...)
			flips += len(got)
		case p < 90 && len(latched) > 0:
			// Refresh a victim at the tick it latched, or one tick later.
			f := latched[rng.Intn(len(latched))]
			at := f.At + dram.Time(rng.Intn(2))
			if at == f.At {
				atTick++
			}
			o.RefreshRowAt(f.Victim, at)
			ref.refreshAt(f.Victim, at, true)
		case p < 95:
			row := pick()
			o.RefreshRowAt(row, now)
			ref.refreshAt(row, now, true)
		case p < 99:
			row := pick()
			o.RefreshRow(row)
			ref.refreshAt(row, now, false)
		default:
			o.Reset()
			ref.reset()
			latched = nil
		}
		if step%250 == 0 {
			check(step)
		}
	}
	check(3000)
	if flips == 0 || atTick == 0 {
		t.Fatalf("%d flips, %d refreshes at a latch tick: the latch paths went unexercised", flips, atTick)
	}
}

// TestAutoRefreshWindowAllocatesNoChunks pins the sparse-state contract:
// one tREFW of auto-refresh over a bank nobody activated restores every
// row without allocating a chunk, and an activation afterwards allocates
// only the chunks its victims fall in.
func TestAutoRefreshWindowAllocatesNoChunks(t *testing.T) {
	timing := dram.DDR4()
	rows := 64 << 10
	bank, err := dram.NewBank(timing, rows)
	if err != nil {
		t.Fatal(err)
	}
	o := mustOracle(t, rows, 100, 1, nil)
	var now dram.Time
	covered := 0
	allocs := testing.AllocsPerRun(1, func() {
		for i := int64(0); i < timing.RefreshCommandsPerWindow(); i++ {
			done, refreshed := bank.AutoRefresh(now)
			for _, r := range refreshed {
				o.RefreshRowAt(r, now)
			}
			covered += len(refreshed)
			now = done
		}
	})
	if covered < 2*rows { // AllocsPerRun runs the body twice
		t.Fatalf("refreshed %d rows, want every row twice", covered)
	}
	if allocs != 0 {
		t.Errorf("auto-refresh of untouched rows allocated %v times", allocs)
	}
	for ci, c := range o.chunks {
		if c.disturb != nil {
			t.Fatalf("chunk %d allocated by refresh alone", ci)
		}
	}
	o.AppendActivate(nil, chunkRows, now) // victims chunkRows±1 straddle chunks 0 and 1
	for ci, c := range o.chunks {
		if want := ci <= 1; (c.disturb != nil) != want {
			t.Errorf("chunk %d allocated = %v, want %v", ci, c.disturb != nil, want)
		}
	}
}
