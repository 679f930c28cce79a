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

// oracleCases are the differential configurations: every distance from 1
// to 4 under both μ models, on banks that end mid-chunk, on a chunk
// boundary, one row past it, and inside the first chunk.
var oracleCases = []struct {
	rows, distance int
	mu             mitigation.MuModel
}{
	{3*chunkRows + 17, 1, mitigation.UniformMu},
	{2 * chunkRows, 2, mitigation.InverseSquareMu},
	{chunkRows + 1, 3, mitigation.UniformMu},
	{100, 4, mitigation.InverseSquareMu},
}

// TestChunkedOracleMatchesDense replays seeded operation sequences through
// the Oracle and the dense reference: ACTs with dwell weights around rows
// 0, rows−1 and every chunk edge, at distances 1–4, mixed with RefreshRow,
// RefreshRowAt (including at the exact tick a victim latched) and Reset.
// The per-act legs issue each ACT through AppendActivateOpen; the run legs
// issue runs of 1–64 ACTs, with and without a dwell column, through one
// AppendActivateRun call each, against the reference's ACTs one at a time.
// Every returned flip must match, in order and with the time of the ACT
// that latched it, and at checkpoints every row's disturbance, the flip
// log, MaxDisturbance and TopVictims.
func TestChunkedOracleMatchesDense(t *testing.T) {
	const nras = 100
	for _, tc := range oracleCases {
		for _, maxRun := range []int{0, 64} {
			leg := fmt.Sprintf("rows=%d/dist=%d", tc.rows, tc.distance)
			if maxRun > 0 {
				leg += "/run"
			}
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/seed=%d", leg, seed), func(t *testing.T) {
					st := differentialRun(t, tc.rows, tc.distance, tc.mu, nras, rand.New(rand.NewSource(seed)), 3000, maxRun)
					if st.flips == 0 || st.atTick == 0 {
						t.Fatalf("%d flips, %d refreshes at a latch tick: the latch paths went unexercised", st.flips, st.atTick)
					}
					if maxRun > 0 && (st.lateFlips == 0 || st.relatchable == 0) {
						t.Fatalf("%d flips past a run's first ACT, %d re-disturbed in their run: the in-run latch went unexercised", st.lateFlips, st.relatchable)
					}
				})
			}
		}
	}
}

// FuzzOracleRunMatchesDense is the run legs of TestChunkedOracleMatchesDense
// driven by the fuzzer's bytes: the first picks the configuration, the rest
// choose runs, rows, dwells, times, refreshes and resets.
func FuzzOracleRunMatchesDense(f *testing.F) {
	f.Add([]byte{0, 0, 63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 99, 0, 1})
	f.Add([]byte{2, 79, 5, 0, 0, 0, 0, 0, 0, 85, 0, 1, 92, 3})
	f.Add([]byte{3, 0, 31, 1, 1, 0, 2, 2, 0, 3, 3, 99, 0, 0, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tc := oracleCases[int(data[0])%len(oracleCases)]
		differentialRun(t, tc.rows, tc.distance, tc.mu, 100, &byteChooser{data: data[1:]}, len(data), 64)
	})
}

// chooser makes a differential run's choices: a seeded *rand.Rand, or the
// fuzzer's bytes.
type chooser interface{ Intn(n int) int }

// byteChooser answers each choice with the next byte modulo n, and 0 once
// the bytes run out.
type byteChooser struct{ data []byte }

func (b *byteChooser) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0]) % n
	b.data = b.data[1:]
	return v
}

// diffStats counts how much of the latch logic a differential run reached.
type diffStats struct {
	flips, atTick int
	// lateFlips counts flips latched past a run's first ACT; relatchable
	// counts flipped victims a later ACT of the same run disturbed again.
	lateFlips, relatchable int
}

// differentialRun replays steps operations chosen by ch through the Oracle
// and the dense reference. With maxRun 0 each ACT step is one
// AppendActivateOpen call; otherwise it is a run of 1 to maxRun ACTs in one
// AppendActivateRun call.
func differentialRun(t *testing.T, rows, distance int, mu mitigation.MuModel, nras dram.Time, ch chooser, steps, maxRun int) diffStats {
	t.Helper()
	const trh = 24
	o := mustOracle(t, rows, trh, distance, mu)
	o.SetNRAS(nras)
	ref := newDenseOracle(rows, trh, distance, mu, nras)

	// Hot rows: both bank edges and both sides of every chunk boundary.
	hot := []int{0, rows - 1}
	for b := chunkRows; b < rows; b += chunkRows {
		hot = append(hot, b-1, b)
	}
	pick := func() int {
		r := hot[ch.Intn(len(hot))] + ch.Intn(2*distance+3) - distance - 1
		return min(max(r, 0), rows-1)
	}
	dwells := []dram.Time{0, 0, nras, nras / 2, 3 * nras, 7 * nras / 4}

	var now dram.Time
	var latched []Flip // flips recorded since the last Reset
	var st diffStats
	check := func(step int) {
		t.Helper()
		for r := 0; r < rows; r++ {
			if got, want := o.Disturbance(r), ref.disturb[r]; got != want {
				t.Fatalf("step %d: Disturbance(%d) = %v, want %v", step, r, got, want)
			}
		}
		if !reflect.DeepEqual(latched, ref.flips) {
			t.Fatalf("step %d: flips since Reset = %v, want %v", step, latched, ref.flips)
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

	for step := 0; step < steps; step++ {
		if ch.Intn(3) == 0 {
			now += dram.Time(ch.Intn(3))
		}
		switch p := ch.Intn(100); {
		case p < 80 && maxRun == 0:
			row, dwell := pick(), dwells[ch.Intn(len(dwells))]
			got := o.AppendActivateOpen(nil, row, now, dwell)
			want := ref.activate(row, now, dwell)
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: ACT row %d returned flips %v, want %v", step, row, got, want)
				}
			}
			latched = append(latched, got...)
			st.flips += len(got)
		case p < 80:
			got, want := activateRun(o, ref, ch, pick, dwells, &now, maxRun, &st)
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: run returned flips %v, want %v", step, got, want)
				}
			}
			latched = append(latched, got...)
			st.flips += len(got)
		case p < 90 && len(latched) > 0:
			// Refresh a victim at the tick it latched, or one tick later.
			f := latched[ch.Intn(len(latched))]
			at := f.At + dram.Time(ch.Intn(2))
			if at == f.At {
				st.atTick++
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
	check(steps)
	return st
}

// activateRun builds one run of 1 to maxRun ACTs — rows picked anew, one
// row hammered, or two alternating; times advancing by 0 or 1 per ACT; a
// dwell column or none — and replays it through o in one AppendActivateRun
// call and through ref one ACT at a time, returning both flip lists.
func activateRun(o *Oracle, ref *denseOracle, ch chooser, pick func() int, dwells []dram.Time, now *dram.Time, maxRun int, st *diffStats) (got, want []Flip) {
	n := 1 + ch.Intn(maxRun)
	rows, at := make([]int32, n), make([]dram.Time, n)
	var dw []dram.Time
	if ch.Intn(2) == 0 {
		dw = make([]dram.Time, n)
	}
	pattern, a, b := ch.Intn(3), pick(), pick()
	for k := range rows {
		row := a
		switch {
		case pattern == 0:
			row = pick()
		case pattern == 2 && k%2 == 1:
			row = b
		}
		if k > 0 {
			*now += dram.Time(ch.Intn(2))
		}
		rows[k], at[k] = int32(row), *now
		if dw != nil {
			dw[k] = dwells[ch.Intn(len(dwells))]
		}
	}
	got = o.AppendActivateRun(nil, rows, at, dw)
	for k, r := range rows {
		var dwell dram.Time
		if dw != nil {
			dwell = dw[k]
		}
		flips := ref.activate(int(r), at[k], dwell)
		for _, f := range flips {
			if k > 0 {
				st.lateFlips++
			}
			for _, later := range rows[k+1:] {
				if d := int(later) - f.Victim; d != 0 && d >= -len(ref.mu) && d <= len(ref.mu) {
					st.relatchable++
					break
				}
			}
		}
		want = append(want, flips...)
	}
	return got, want
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

// TestReleasedChunksStartClean builds oracles on the arrays of a released
// oracle that had latched flips in two chunks. Each must start with zero
// disturbance, no latch bits and no flipAt entries, and must then match
// a brand-new oracle (the dense reference) row for row, in TopVictims and
// in its first flip. sync.Pool may drop what Release puts (the race
// detector drops a quarter on purpose), so the test repeats until some
// attempt reuses a released array, and fails if none does.
func TestReleasedChunksStartClean(t *testing.T) {
	const rows, trh = 2 * chunkRows, 40
	hammered := []int{100, chunkRows + 100} // one aggressor per chunk
	reused := 0
	for attempt := 0; attempt < 8; attempt++ {
		dirty := mustOracle(t, rows, trh, 1, nil)
		for r := 0; r < rows; r += 2 {
			dirty.AppendActivate(nil, r, 0) // leave every odd row disturbed
		}
		var flips []Flip
		for i := 0; i < trh; i++ {
			for _, r := range hammered {
				flips = dirty.AppendActivate(flips, r, 1)
			}
		}
		if len(flips) != 4 || len(dirty.flipAt) != 4 {
			t.Fatalf("dirty oracle latched %d flips (%d flipAt entries), want 4", len(flips), len(dirty.flipAt))
		}
		released := map[*float64]bool{}
		for _, c := range dirty.chunks {
			released[&c.disturb[0]] = true
		}
		dirty.Release()
		if top := dirty.TopVictims(1); len(top) != 0 || dirty.ACTs() != 0 || len(dirty.flipAt) != 0 {
			t.Fatalf("released oracle kept state: top %v, %d ACTs, %d flipAt entries", top, dirty.ACTs(), len(dirty.flipAt))
		}

		o := mustOracle(t, rows, trh, 1, nil)
		ref := newDenseOracle(rows, trh, 1, mitigation.UniformMu, 0)
		var got, want []Flip
		for i := 0; len(want) == 0; i++ {
			for _, r := range []int{hammered[0] + 50, hammered[1] + 50} {
				got = o.AppendActivate(got, r, dram.Time(i))
				want = append(want, ref.activate(r, dram.Time(i), 0)...)
			}
			if i == 0 {
				for ci, c := range o.chunks {
					if released[&c.disturb[0]] {
						reused++
					}
					for w, bits := range c.latched {
						if bits != 0 {
							t.Fatalf("chunk %d: latch word %d = %#x after the first ACT, want 0", ci, w, bits)
						}
					}
				}
				if len(o.flipAt) != 0 {
					t.Fatalf("%d flipAt entries after the first ACT, want 0", len(o.flipAt))
				}
				for r := 0; r < rows; r++ {
					if g, w := o.Disturbance(r), ref.disturb[r]; g != w {
						t.Fatalf("after the first ACT: Disturbance(%d) = %v, want %v", r, g, w)
					}
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("first flips = %v, want %v", got, want)
		}
		if g, w := o.TopVictims(5), ref.topVictims(5); !reflect.DeepEqual(g, w) {
			t.Fatalf("TopVictims(5) = %v, want %v", g, w)
		}
		if reused > 0 {
			return
		}
	}
	t.Fatal("no attempt drew a released array from the pool")
}
