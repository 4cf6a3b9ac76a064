package tensor

import (
	"math/bits"
	"testing"
)

// FuzzCompareExchange holds the AVX-512 compare-exchange strip to the Go
// strip over lengths 0–300 — every full 32- and 8-lane step and every
// masked tail — at unaligned starts, on keys drawn from the edges of the
// unsigned order (0, 2⁶³−1, 2⁶³, 2⁶⁴−1 and their neighbours), equal pairs
// and arbitrary bits. Lanes either side of the slices are sentinels that
// neither strip may touch.
func FuzzCompareExchange(f *testing.F) {
	for n := 0; n <= 300; n += 11 {
		f.Add(uint64(n), uint16(n), uint8(n))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nb uint16, mix uint8) {
		if !cmpxWide {
			t.Skip("CompareExchange runs the Go strip on this CPU")
		}
		n, off := int(nb)%301, int(seed%8)
		const pad = 9
		lo, hi := make([]uint64, off+n+pad), make([]uint64, off+n+pad)
		edges := []uint64{0, 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, ^uint64(0) - 1, ^uint64(0)}
		for i := range lo {
			r := mix64(seed + uint64(i)*crngGolden)
			switch int(r%8) % (1 + int(mix%4)) {
			case 1:
				lo[i], hi[i] = edges[r>>8%7], edges[r>>16%7]
			case 2:
				lo[i], hi[i] = r, r
			default:
				lo[i], hi[i] = r, bits.RotateLeft64(r, int(mix))^mix64(r)
			}
		}
		wantLo, wantHi := append([]uint64(nil), lo...), append([]uint64(nil), hi...)
		CompareExchange(lo[off:off+n], hi[off:off+n])
		cmpxGo(wantLo[off:off+n], wantHi[off:off+n])
		for i := range lo {
			if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
				t.Fatalf("n=%d off=%d lane %d: strip (%#x, %#x), Go (%#x, %#x)",
					n, off, i-off, lo[i], hi[i], wantLo[i], wantHi[i])
			}
		}
	})
}

// TestCompareExchangeOrdersPairs checks the Go strip's contract directly:
// each pair comes out as (min, max), unsigned.
func TestCompareExchangeOrdersPairs(t *testing.T) {
	lo := []uint64{3, 1 << 63, 5, ^uint64(0), 0}
	hi := []uint64{2, 1<<63 - 1, 5, 0, ^uint64(0), 42}
	CompareExchange(lo, hi)
	wantLo := []uint64{2, 1<<63 - 1, 5, 0, 0}
	wantHi := []uint64{3, 1 << 63, 5, ^uint64(0), ^uint64(0), 42}
	for i := range wantHi {
		if i < len(lo) && lo[i] != wantLo[i] || hi[i] != wantHi[i] {
			t.Fatalf("lane %d: got lo %#x hi %#x", i, lo, hi)
		}
	}
}
