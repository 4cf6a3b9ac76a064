//go:build amd64

package tensor

// cmpxWide reports whether CompareExchange runs the AVX-512 strip
// (hasAVX512), read once at start-up.
var cmpxWide = hasAVX512()

// cmpxAVX512 is CompareExchange's AVX-512 strip (cmpx_amd64.s); hi must be
// as long as lo, which must not be empty.
//
//go:noescape
func cmpxAVX512(lo, hi []uint64)
