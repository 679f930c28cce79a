package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"graphene/internal/dram"
)

// alternateDwell returns mixedTrace(n, banks, seed) with a dwell on every
// third access of the even-numbered segments only, so the stream is
// version 2 and its odd segments carry no dwell column.
func alternateDwell(n, banks int, seed int64) []Access {
	accs := mixedTrace(n, banks, seed)
	for i := range accs {
		if (i/segmentAccs)%2 == 0 && i%3 == 0 {
			accs[i].Dwell = dram.Time(1 + (i*7919)%60_000)
		}
	}
	return accs
}

// TestWriteBinaryBytesPinned pins WriteBinary's output byte for byte:
// every trace file, resume journal and golden holds bytes this writer
// wrote, so any change to the encoder must reproduce them exactly. Each
// case's length and SHA-256 were recorded from the writer that grouped
// segments through a map and framed them in a second pass.
func TestWriteBinaryBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		accs []Access
		size int
		sum  string
	}{
		{"empty", nil, 22, "1cf94c7afeef4eda8b1627aec1c609f95b513fd96c51ce3e173601bd246429d8"},
		{"one", []Access{{Bank: 0, Row: 42, Gap: 7}}, 29, "b45c0962e97a3e89c8e910b5b1b0e32ece5d2810fde9bd7280ed801eda7be74d"},
		{"one-segment", mixedTrace(segmentAccs, 4, 11), 502910, "c792c0be90908d599da827a7a3263e5d20c0e8e6c21f743adf0045010147f5c6"},
		{"two-segments", mixedTrace(2*segmentAccs, 6, 12), 1011297, "96d0dd726f7ac2a50f44b3fac7f7177a80b1612815269a801dec02bc63a1683d"},
		{"multi-segment", mixedTrace(segmentAccs*2+123, 5, 4), 1008537, "0c083fb8da7a09bdf40df3926908593df3befa90a1a356b86fd116ef34811ef8"},
		{"dwell-alternate", alternateDwell(4*segmentAccs+777, 3, 13), 2287375, "8ff52d3ef073413ea8505d6e287ea32e1bcb1fdfd809ca419d2de0dfea8b3d1e"},
		{"3000-banks", mixedTrace(segmentAccs+5000, 3000, 14), 583587, "d78e898e6439bcbf009b3673c36efa0788f916fd59c364d8ae17cd72fd10d601"},
		{"extremes", []Access{
			{Bank: MaxBank, Row: MaxRow, Gap: MaxGap, Dwell: MaxDwell},
			{Bank: 0, Row: 0, Gap: 0},
			{Bank: MaxBank, Row: 0, Gap: 0},
			{Bank: 1, Row: MaxRow, Gap: MaxGap},
		}, 120, "c4e6d612324535f9a911e71674b61f61f35f7a99ec1de5efe8c4f80996b03c59"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := encodeBinary(t, "pinned-"+tc.name, tc.accs)
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); len(data) != tc.size || got != tc.sum {
				t.Errorf("%d bytes, sha256 %s; want %d bytes, sha256 %s", len(data), got, tc.size, tc.sum)
			}
		})
	}
}
