package dram

import "testing"

func newTestBank(t *testing.T, rows int) *Bank {
	t.Helper()
	b, err := NewBank(DDR4(), rows)
	if err != nil {
		t.Fatalf("NewBank: %v", err)
	}
	return b
}

func TestNewBankRejectsBadInputs(t *testing.T) {
	if _, err := NewBank(DDR4(), 0); err == nil {
		t.Error("NewBank accepted 0 rows")
	}
	if _, err := NewBank(Timing{}, 64); err == nil {
		t.Error("NewBank accepted zero timing")
	}
}

func TestActivateOccupiesBankForTRC(t *testing.T) {
	b := newTestBank(t, 1024)
	done, err := b.ActivateOpen(3, 0, 0)
	if err != nil {
		t.Fatalf("ActivateOpen: %v", err)
	}
	if done != b.Timing().TRC {
		t.Errorf("first ACT done at %v, want tRC %v", done, b.Timing().TRC)
	}
	// A second ACT issued "at the same time" must queue behind the first.
	done2, err := b.ActivateOpen(4, 0, 0)
	if err != nil {
		t.Fatalf("ActivateOpen: %v", err)
	}
	if done2 != 2*b.Timing().TRC {
		t.Errorf("second ACT done at %v, want %v", done2, 2*b.Timing().TRC)
	}
	if got := b.Stats().ACTs; got != 2 {
		t.Errorf("ACTs = %d, want 2", got)
	}
}

func TestActivateRejectsOutOfRangeRow(t *testing.T) {
	b := newTestBank(t, 16)
	for _, row := range []int{-1, 16, 1 << 20} {
		if _, err := b.ActivateOpen(row, 0, 0); err == nil {
			t.Errorf("ActivateOpen(%d) accepted out-of-range row", row)
		}
	}
}

func TestAutoRefreshCoversWholeBankPerWindow(t *testing.T) {
	rows := 8 * 1024
	b := newTestBank(t, rows)
	refs := b.Timing().RefreshCommandsPerWindow()
	var now Time
	covered := make(map[int]bool)
	for i := int64(0); i < refs; i++ {
		done, refreshed := b.AutoRefresh(now)
		for _, r := range refreshed {
			covered[r] = true
		}
		now = done
	}
	if len(covered) != rows {
		t.Errorf("one window of REFs covered %d rows, want all %d", len(covered), rows)
	}
	st := b.Stats()
	if st.REFCommands != refs {
		t.Errorf("REFCommands = %d, want %d", st.REFCommands, refs)
	}
	if st.RowsAutoRefresh < int64(rows) {
		t.Errorf("RowsAutoRefresh = %d, want >= %d", st.RowsAutoRefresh, rows)
	}
}

func TestAutoRefreshUpdatesLastRefresh(t *testing.T) {
	// Each REF covers the next rowsPerREF rows in address order and
	// completes tRFC after it issues; a second REF continues where the
	// first stopped and queues behind it.
	b := newTestBank(t, 1024)
	per := int((1024 + b.Timing().RefreshCommandsPerWindow() - 1) / b.Timing().RefreshCommandsPerWindow())
	done, rows := b.AutoRefresh(100)
	if done != 100+b.Timing().TRFC {
		t.Errorf("REF done at %v, want %v", done, 100+b.Timing().TRFC)
	}
	if len(rows) != per {
		t.Fatalf("REF refreshed %d rows, want %d", len(rows), per)
	}
	for i, r := range rows {
		if r != i {
			t.Errorf("REF row %d = %d, want %d", i, r, i)
		}
	}
	done2, rows := b.AutoRefresh(100)
	if done2 != done+b.Timing().TRFC {
		t.Errorf("second REF done at %v, want %v", done2, done+b.Timing().TRFC)
	}
	for i, r := range rows {
		if r != per+i {
			t.Errorf("second REF row %d = %d, want %d", i, r, per+i)
		}
	}
}

func TestNearbyRowRefreshDistance(t *testing.T) {
	b := newTestBank(t, 1024)
	_, refreshed, err := b.NearbyRowRefresh(100, 2, 0)
	if err != nil {
		t.Fatalf("NRR: %v", err)
	}
	want := map[int]bool{98: true, 99: true, 101: true, 102: true}
	if len(refreshed) != len(want) {
		t.Fatalf("refreshed %v, want keys of %v", refreshed, want)
	}
	for _, r := range refreshed {
		if !want[r] {
			t.Errorf("unexpected refreshed row %d", r)
		}
	}
	st := b.Stats()
	if st.NRRCommands != 1 || st.RowsNRR != 4 {
		t.Errorf("NRR stats = %+v, want 1 command / 4 rows", st)
	}
}

func TestNearbyRowRefreshAtEdges(t *testing.T) {
	b := newTestBank(t, 8)
	_, refreshed, err := b.NearbyRowRefresh(0, 2, 0)
	if err != nil {
		t.Fatalf("NRR: %v", err)
	}
	if len(refreshed) != 2 { // only rows 1 and 2 exist on the high side
		t.Errorf("edge NRR refreshed %v, want 2 rows", refreshed)
	}
	_, refreshed, err = b.NearbyRowRefresh(7, 1, 0)
	if err != nil {
		t.Fatalf("NRR: %v", err)
	}
	if len(refreshed) != 1 || refreshed[0] != 6 {
		t.Errorf("edge NRR refreshed %v, want [6]", refreshed)
	}
}

func TestNearbyRowRefreshRejectsBadArgs(t *testing.T) {
	b := newTestBank(t, 8)
	if _, _, err := b.NearbyRowRefresh(-1, 1, 0); err == nil {
		t.Error("NRR accepted negative row")
	}
	if _, _, err := b.NearbyRowRefresh(8, 1, 0); err == nil {
		t.Error("NRR accepted out-of-range row")
	}
	if _, _, err := b.NearbyRowRefresh(3, 0, 0); err == nil {
		t.Error("NRR accepted distance 0")
	}
}

func TestNRROccupancyMatchesPaperAccounting(t *testing.T) {
	// §V-B: victim refresh costs tRC × rows refreshed, plus tRP.
	b := newTestBank(t, 1024)
	done, refreshed, err := b.NearbyRowRefresh(100, 1, 0)
	if err != nil {
		t.Fatalf("NRR: %v", err)
	}
	want := Time(len(refreshed))*b.Timing().TRC + b.Timing().TRP
	if done != want {
		t.Errorf("NRR done at %v, want %v", done, want)
	}
}

func TestRefreshRowsExplicitSet(t *testing.T) {
	// Refreshing an explicit set costs tRC per row plus one tRP and counts
	// as one victim-refresh command covering exactly those rows.
	b := newTestBank(t, 64)
	rows := []int{1, 5, 9}
	done, err := b.RefreshRows(rows, 10)
	if err != nil {
		t.Fatalf("RefreshRows: %v", err)
	}
	if want := 10 + Time(len(rows))*b.Timing().TRC + b.Timing().TRP; done != want {
		t.Errorf("RefreshRows done at %v, want %v", done, want)
	}
	if st := b.Stats(); st.NRRCommands != 1 || st.RowsNRR != int64(len(rows)) {
		t.Errorf("stats = %+v, want 1 command / %d rows", st, len(rows))
	}
	if _, err := b.RefreshRows([]int{64}, 0); err == nil {
		t.Error("RefreshRows accepted out-of-range row")
	}
}

func TestBusyTimeAccumulates(t *testing.T) {
	b := newTestBank(t, 1024)
	if _, err := b.ActivateOpen(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	b.AutoRefresh(0)
	st := b.Stats()
	if want := b.Timing().TRC + b.Timing().TRFC; st.BusyTime != want {
		t.Errorf("BusyTime = %v, want %v", st.BusyTime, want)
	}
}
