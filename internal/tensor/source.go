package tensor

import "math/rand"

// source emits exactly the stream of rand.NewSource(seed) — math/rand's Go 1
// additive lagged-Fibonacci generator (Mitchell & Reeds) — but seeds in O(1).
//
// math/rand seeds its 607-word register by running the Lehmer LCG
// x ↦ 48271·x mod (2³¹−1) (Park, Miller & Stockmeyer, CACM 1993) for 1,841
// steps and XOR-ing the results into a fixed "cooked" table; that init is
// most of the cost of a short stream. Every LCG state has a closed form,
// x₀·48271ᵏ mod (2³¹−1), so word i of the seeded register is
//
//	cooked[i] ^ (x₀·A^(21+3i) mod M)<<40 ^ (x₀·A^(22+3i) mod M)<<20 ^ (x₀·A^(23+3i) mod M)
//
// and the first rngTap draws only read words no draw has written yet:
// draw d is word(334−d) + word(607−d). So a source stores x₀ and computes
// those draws directly. The register is materialized (into a block kept
// across Seed calls) only when draw rngTap+1 first needs it.
//
// From then on the lagged-Fibonacci step runs unchanged, a pass at a time:
// draw d writes its value at feed position (334−d) mod 607 and every
// position is written once per 607 draws, so one tight loop steps the
// feeds down to 0 and the draws are then read back from the register in
// the same order.
type source struct {
	vec   *[rngLen]uint64 // the register; allocated on first need, reused by Seed
	x0    uint32          // the normalized seed: the LCG state before step 1
	drawn int             // draws served by the closed form; rngTap+1 once vec is live
	next  int             // vec[next-1] is the next draw; 0 when a pass is due
}

const (
	rngLen  = 607
	rngTap  = 273
	lcgA    = 48271
	lcgM    = 1<<31 - 1
	lcgZero = 89482311 // what math/rand seeds with in place of 0
)

var (
	// lcgPow[i] holds A^(21+3i), A^(22+3i), A^(23+3i) mod M: the LCG
	// steps whose states math/rand folds into register word i.
	lcgPow [rngLen][3]uint64
	// cooked is math/rand's rngCooked table, recovered in init from the
	// NewSource(1) stream rather than copied.
	cooked [rngLen]uint64
)

// lcgMul returns x·p mod 2³¹−1 for x, p < 2³¹ by Mersenne folding.
func lcgMul(x, p uint64) uint64 {
	t := x * p
	t = t&lcgM + t>>31
	if t >= lcgM {
		t -= lcgM
	}
	return t
}

// lcgWord is the LCG half of register word i under normalized seed x0.
func lcgWord(x0 uint64, i int) uint64 {
	p := &lcgPow[i]
	return lcgMul(x0, p[0])<<40 ^ lcgMul(x0, p[1])<<20 ^ lcgMul(x0, p[2])
}

func init() {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = lcgMul(p, lcgA)
	}
	for i := range lcgPow {
		for j := range lcgPow[i] {
			lcgPow[i][j] = p
			p = lcgMul(p, lcgA)
		}
	}
	// Recover NewSource(1)'s seeded register w from its first rngLen draws.
	// Draw d adds the tap word to the feed word and writes the sum back at
	// the feed. Past draw rngTap the tap word is the sum draw d−rngTap
	// wrote, so each such draw gives its feed word; the first rngTap draws
	// then give the words they fed from the tap words just recovered.
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for d := 1; d <= rngLen; d++ {
		out[d] = ref.Uint64()
	}
	var w [rngLen]uint64
	for d := rngTap + 1; d <= rngLen; d++ {
		w[(2*rngLen-rngTap-d)%rngLen] = out[d] - out[d-rngTap]
	}
	for d := 1; d <= rngTap; d++ {
		w[rngLen-rngTap-d] = out[d] - w[rngLen-d]
	}
	for i := range cooked {
		cooked[i] = w[i] ^ lcgWord(1, i)
	}
}

// Seed resets s to the stream of rand.NewSource(seed). It normalizes the
// seed as math/rand does and nothing more.
func (s *source) Seed(seed int64) {
	seed %= lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = lcgZero
	}
	s.x0 = uint32(seed)
	s.drawn, s.next = 0, 0
}

func (s *source) word(i int) uint64 {
	return cooked[i] ^ lcgWord(uint64(s.x0), i)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns the next 64-bit draw.
func (s *source) Uint64() uint64 {
	if s.next == 0 {
		return s.pass()
	}
	s.next--
	return s.vec[s.next]
}

// pass serves a draw that no finished pass holds: one of the first rngTap
// straight from the closed form, else the first of a new pass.
func (s *source) pass() uint64 {
	switch {
	case s.drawn < rngTap:
		s.drawn++
		return s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn)
	case s.drawn == rngTap:
		s.fill()
		s.drawn++
		s.step(rngLen - 2*rngTap)
	default:
		s.step(rngLen)
	}
	s.next--
	return s.vec[s.next]
}

// fill materializes the register as math/rand holds it after rngTap draws:
// the seeded words, with each of those draws written back at its feed.
func (s *source) fill() {
	if s.vec == nil {
		s.vec = new([rngLen]uint64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for i := rngLen - rngTap - 1; i >= rngLen-2*rngTap; i-- {
		s.vec[i] += s.vec[i+rngTap]
	}
}

// step runs math/rand's step at feeds n−1 down to 0 — each adds the word
// rngTap positions above it, cyclically — and queues the n draws. It runs
// in three ranges of feeds, top range first. No step inside a range writes
// a tap word of the same range, so each range is one flat loop; the
// ranges above it have already written the tap words it needs.
func (s *source) step(n int) {
	v := s.vec[:]
	for _, r := range stepRanges {
		if lo, hi := r[0], min(r[1], n); lo < hi {
			dst, src := v[lo:hi], v[(lo+rngTap)%rngLen:]
			src = src[:len(dst)]
			for i := range dst {
				dst[i] += src[i]
			}
		}
	}
	s.next = n
}

// stepRanges splits the feeds [0, rngLen) at rngLen−rngTap (feeds above
// read taps below 273 that this pass has not written yet) and at
// rngLen−2·rngTap (feeds above read taps the top range wrote; feeds below
// read taps the middle range wrote).
var stepRanges = [...][2]int{
	{rngLen - rngTap, rngLen},
	{rngLen - 2*rngTap, rngLen - rngTap},
	{0, rngLen - 2*rngTap},
}
