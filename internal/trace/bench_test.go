package trace

import (
	"bytes"
	"io"
	"testing"
)

// benchTrace is the fixture both parse benchmarks decode: a multi-bank
// trace big enough that per-access cost dominates framing.
const benchAccs = 1 << 18

func benchFixture() []Access {
	return mixedTrace(benchAccs, 8, 42)
}

// BenchmarkTraceCodec compares parse throughput of the two on-disk
// formats over the same access stream. parse-text is the old hot path
// (per-line strconv); parse-binary is ReadBinary including global-order
// reconstruction; decode-blocks is the replay ingest path
// (BlockReader.NextCols, no order reconstruction). make bench-trace records
// these and rhbench -assert-speedup gates the ≥10× binary-vs-text target.
func BenchmarkTraceCodec(b *testing.B) {
	accs := benchFixture()

	var text bytes.Buffer
	if _, err := WriteTo(&text, FromSlice("bench", accs)); err != nil {
		b.Fatal(err)
	}
	var bin bytes.Buffer
	if _, err := WriteBinary(&bin, FromSlice("bench", accs)); err != nil {
		b.Fatal(err)
	}
	b.Logf("text %d bytes, binary %d bytes (%.2fx smaller)",
		text.Len(), bin.Len(), float64(text.Len())/float64(bin.Len()))

	perACT := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(accs)), "ns/act")
	}

	b.Run("parse-text", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		for i := 0; i < b.N; i++ {
			tr, err := ReadAll(bytes.NewReader(text.Bytes()), "bench")
			if err != nil {
				b.Fatal(err)
			}
			if len(tr.Accs) != len(accs) {
				b.Fatalf("parsed %d accesses", len(tr.Accs))
			}
		}
		perACT(b)
	})

	b.Run("parse-binary", func(b *testing.B) {
		b.SetBytes(int64(bin.Len()))
		for i := 0; i < b.N; i++ {
			tr, err := ReadBinary(bytes.NewReader(bin.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if len(tr.Accs) != len(accs) {
				b.Fatalf("parsed %d accesses", len(tr.Accs))
			}
		}
		perACT(b)
	})

	b.Run("decode-blocks", func(b *testing.B) {
		b.SetBytes(int64(bin.Len()))
		var buf ColBlock
		for i := 0; i < b.N; i++ {
			br, err := NewBlockReader(bytes.NewReader(bin.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			var n int64
			for {
				blk, err := br.NextCols(buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				n += int64(len(blk.Rows))
				buf = blk
			}
			if n != int64(len(accs)) {
				b.Fatalf("decoded %d accesses", n)
			}
		}
		perACT(b)
	})
}

// BenchmarkTraceEncode sizes the write side: text vs binary serialization
// of the same stream.
func BenchmarkTraceEncode(b *testing.B) {
	accs := benchFixture()
	b.Run("text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if _, err := WriteTo(&buf, FromSlice("bench", accs)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if _, err := WriteBinary(&buf, FromSlice("bench", accs)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
