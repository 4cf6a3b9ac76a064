//go:build !amd64

package tensor

// cmpxWide is false off amd64: CompareExchange runs the Go strip.
const cmpxWide = false

// cmpxAVX512 is never called off amd64.
func cmpxAVX512(lo, hi []uint64) { cmpxGo(lo, hi) }
