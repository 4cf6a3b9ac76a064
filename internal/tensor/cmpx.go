package tensor

// CompareExchange orders every pair (lo[i], hi[i]) as unsigned integers:
// afterwards lo[i] holds the smaller and hi[i] the larger of the two. It
// is the comparator of a sorting network applied to a whole row of lanes
// at once, one lane per coordinate; hi must be at least as long as lo.
// With AVX-512 it runs eight lanes to an instruction (VPMINUQ and VPMAXUQ,
// a masked tile past the last full one), elsewhere the Go strip cmpxGo.
// Both take each pair's min and max, so they give the same bits
// (FuzzCompareExchange).
func CompareExchange(lo, hi []uint64) {
	if len(lo) == 0 {
		return
	}
	hi = hi[:len(lo)]
	if cmpxWide {
		cmpxAVX512(lo, hi)
		return
	}
	cmpxGo(lo, hi)
}

// cmpxGo is CompareExchange's Go strip.
func cmpxGo(lo, hi []uint64) {
	hi = hi[:len(lo)]
	for i, a := range lo {
		b := hi[i]
		lo[i], hi[i] = min(a, b), max(a, b)
	}
}
