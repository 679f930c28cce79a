package cra

import (
	"testing"
)

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted TRH 0")
	}
	if _, err := New(Config{TRH: 50000, CacheLines: -1}); err == nil {
		t.Error("accepted negative cache size")
	}
}

func TestTriggerAtThreshold(t *testing.T) {
	c, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i < 12500; i++ {
		if vrs := c.AppendOnActivate(nil, 9, 0); len(vrs) != 0 {
			t.Fatalf("premature refresh at ACT %d", i)
		}
	}
	vrs := c.AppendOnActivate(nil, 9, 0)
	if len(vrs) != 1 || vrs[0].Aggressor != 9 {
		t.Fatalf("at TRH/4: %v, want refresh of row 9's victims", vrs)
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	c, err := New(Config{TRH: 50000, CacheLines: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.AppendOnActivate(nil, 1, 0) // miss (cold)
	c.AppendOnActivate(nil, 1, 0) // hit
	c.AppendOnActivate(nil, 2, 0) // miss
	c.AppendOnActivate(nil, 3, 0) // miss, evicts LRU (row 1)
	c.AppendOnActivate(nil, 1, 0) // miss again
	if c.Hits() != 1 || c.Misses() != 4 {
		t.Errorf("hits/misses = %d/%d, want 1/4", c.Hits(), c.Misses())
	}
	if c.ExtraDRAMAccesses() != 8 {
		t.Errorf("extra DRAM accesses = %d, want 8 (2 per miss)", c.ExtraDRAMAccesses())
	}
}

func TestCountsPersistThroughEviction(t *testing.T) {
	// The defining CRA property: counters written back to DRAM survive
	// eviction, so low-locality patterns cannot reset a row's count.
	c, err := New(Config{TRH: 400, CacheLines: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := int64(100) // TRH/4
	var refreshes int64
	for i := int64(0); i < 2*th; i++ {
		refreshes += int64(len(c.AppendOnActivate(nil, 5, 0)))
		c.AppendOnActivate(nil, 1000+int(i%7), 0) // thrash the single-line cache
	}
	if refreshes != 2 {
		t.Errorf("refreshes = %d, want 2 (counts must survive writeback)", refreshes)
	}
}

func TestLRUKeepsHotLine(t *testing.T) {
	c, err := New(Config{TRH: 50000, CacheLines: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.AppendOnActivate(nil, 7, 0)         // hot line
		c.AppendOnActivate(nil, 100+i%500, 0) // streaming misses
	}
	// Hot line must have stayed cached: 999 hits on row 7.
	if c.Hits() < 999 {
		t.Errorf("hits = %d, want >= 999 (LRU must keep the hot line)", c.Hits())
	}
}

func TestCostIsCacheOnly(t *testing.T) {
	c, err := New(Config{TRH: 50000, CacheLines: 128, Rows: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	cost := c.Cost()
	if cost.Entries != 128 {
		t.Errorf("entries = %d, want 128", cost.Entries)
	}
	if cost.CAMBits != 128*(16+14) {
		t.Errorf("CAM bits = %d, want %d", cost.CAMBits, 128*(16+14))
	}
}
