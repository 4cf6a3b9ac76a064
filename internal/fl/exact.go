package fl

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"fedcdp/internal/tensor"
)

// Hierarchical (sharded) aggregation. Edge aggregators each own a shard of
// the client population, fold their shard's updates locally, and forward
// one weight-carrying partial fold upstream; the root composes partials
// exactly as it composes client updates. The correctness obligation is
// strong: a tree fold over ANY shard assignment must reproduce the flat
// fold bit for bit. Floating-point addition is not associative, so a float
// partial sum cannot honor that — instead the sharded fold accumulates in
// an exact wide fixed-point representation (ExactVec below): every float64
// addend is absorbed without rounding, sums over any grouping and in any
// order are the same mathematical value, and a single round-to-nearest
// happens at Commit. Exactness is what makes the tree ≡ flat guarantee a
// theorem instead of a tolerance — and, as a bonus, makes arrival-order
// streaming folds bit-reproducible at any GOMAXPROCS.
//
// The exact fold is opt-in (Config.Shards ≥ 1, aggregation.shards): its
// committed bits differ from the legacy float aggregators' order-dependent
// sums, and every pre-existing seeded golden — which runs with Shards=0 —
// is untouched. In process any Shards ≥ 1 is the one flat exact fold; the
// tree itself is physical, edge RoundServers on the simnet fabric
// (core.RunSimnet) forwarding partials to the root, and that flat fold is
// its parity oracle.

// Accumulator geometry. Every finite float64 is an integer multiple of
// 2^-1074, so the accumulator is a two's-complement integer on that grid:
// absolute bit 0 weighs 2^-1074 and limb L holds bits [64L, 64L+64). A
// float64 addend is a 53-bit mantissa at bit offset ≤ 2045: two adjacent
// limbs, no higher than limb 32.
const (
	// exactMaxLimbs is the widest window (2304 bits) addends or wire input
	// can demand — a wire scalar may reach limb 34, plus one carry limb —
	// and so the size of Round's and ScalarWire's stack scratch.
	exactMaxLimbs = 36
	// exactMinExp is the grid: no wire scalar may carry bits below 2^-1074.
	exactMinExp = -1074
	// exactTopBit is the highest absolute bit a wire scalar may set: the top
	// of limb 34, |value| < 2^1166.
	exactTopBit = 64*(exactMaxLimbs-1) - 1
	// exactMantBytes caps a wire mantissa's byte length at the widest window;
	// the codecs enforce it before copying a mantissa off the frame.
	exactMantBytes = exactMaxLimbs * 8
)

// Special-value codes tracked per element beside the exact accumulator (an
// integer has no NaN, and ±Inf must merge by IEEE rules: opposite infinities
// yield NaN, NaN absorbs everything).
const (
	exactFinite byte = iota
	exactPosInf
	exactNegInf
	exactNaN
)

// mergeSpec combines two special-value codes under IEEE addition rules.
func mergeSpec(a, b byte) byte {
	switch {
	case a == exactFinite:
		return b
	case b == exactFinite:
		return a
	case a == b:
		return a
	default: // mixed infinities, or anything with NaN
		return exactNaN
	}
}

// specFloat materializes a special-value code.
func specFloat(s byte) float64 {
	switch s {
	case exactPosInf:
		return math.Inf(1)
	case exactNegInf:
		return math.Inf(-1)
	default:
		return math.NaN()
	}
}

// ExactVec is a vector of exact fixed-point accumulators for float64
// addends: a superaccumulator. Addition is integer addition on the 2^-1074
// grid, hence exact, commutative and associative: sums are invariant to
// arrival order, grouping and shard assignment, which is the arithmetic
// foundation of the hierarchical fold. Round performs the single
// round-to-nearest-even per element. Not safe for concurrent use; the
// aggregators lock around it.
//
// Layout. All n elements share one limb window [lo, lo+w): element i is the
// w little-endian limbs at limbs[i·w:], a two's-complement integer scaled by
// 2^(64·lo−1074). The first addend sets the window and it only ever grows
// (reserve); Zero keeps it, so a reused vector re-lays nothing after its
// first round. One window per vector, not the full 36 limbs per coordinate,
// is a memory decision: clipped and noised updates span 3–5 limbs, where
// the full range is 288 B × 2,114 parameters × 33 aggregators ≈ 20 MB on
// a 32-shard tree of the cancer MLP whose whole process peaked at 79 MB.
//
// Headroom (why no sum wraps). Every leaf — a float64 addend or a wire
// scalar — lies strictly below the window's top limb, |leaf| < 2^(64(w−1)),
// and every element keeps |sum| < 2^(64w−2): the top limb's two highest
// bits agree. A leaf added to such a sum, or two such sums merged in the
// union of their windows, stay below 2^(64w−1), inside the signed range;
// a result that uses the headroom bit widens the window by one limb before
// the next operation. One limb of headroom is ~2^62 leaves (the wire caps
// a partial at 2^31 clients), so in a fold the widening never fires; it
// exists so that no call sequence can wrap.
type ExactVec struct {
	n     int
	lo, w int
	limbs []uint64
	spec  []byte
}

// NewExactVec returns a zeroed n-element exact accumulator.
func NewExactVec(n int) *ExactVec {
	return &ExactVec{n: n, spec: make([]byte, n)}
}

// Len returns the element count.
func (v *ExactVec) Len() int { return v.n }

// Zero resets every element to an empty sum (for reuse across rounds). The
// window is kept, so this is O(n·w).
func (v *ExactVec) Zero() {
	clear(v.limbs)
	clear(v.spec) // exactFinite
}

// zero resets element i to an empty sum in O(w), keeping the window.
func (v *ExactVec) zero(i int) {
	clear(v.limbs[i*v.w : (i+1)*v.w])
	v.spec[i] = exactFinite
}

// reserve grows the window to cover absolute limbs [lo, hi), re-laying the
// slab: new low limbs are zero, new high limbs extend each element's sign.
func (v *ExactVec) reserve(lo, hi int) {
	if v.w != 0 {
		if lo >= v.lo && hi <= v.lo+v.w {
			return
		}
		lo, hi = min(lo, v.lo), max(hi, v.lo+v.w)
	}
	w := hi - lo
	limbs := make([]uint64, v.n*w)
	if v.w != 0 {
		off := v.lo - lo
		for i := 0; i < v.n; i++ {
			src, dst := v.limbs[i*v.w:(i+1)*v.w], limbs[i*w:(i+1)*w]
			copy(dst[off:], src)
			if int64(src[v.w-1]) < 0 {
				for j := off + v.w; j < w; j++ {
					dst[j] = ^uint64(0)
				}
			}
		}
	}
	v.lo, v.w, v.limbs = lo, w, limbs
}

// negate replaces a two's-complement integer by its negation.
func negate(a []uint64) {
	c := uint64(1)
	for j := range a {
		a[j], c = bits.Add64(^a[j], 0, c)
	}
}

// crowded reports whether a top limb has used its headroom bit (its two
// highest bits disagree), the signal to widen the window by one limb.
func crowded(top uint64) bool { return (top^top<<1)>>63 != 0 }

// Add absorbs one float64 addend into element i, exactly. Zero addends are
// skipped (an exact sum is unchanged; note this canonicalizes a sum of
// negative zeros to +0, one of the documented exact-mode semantics).
// Non-finite addends fold into the element's special-value code.
func (v *ExactVec) Add(i int, x float64) {
	b := math.Float64bits(x)
	e := int(b >> 52 & 0x7ff)
	m := b & (1<<52 - 1)
	switch {
	case e == 0x7ff:
		s := exactNaN
		if m == 0 {
			s = exactPosInf + byte(b>>63)
		}
		v.spec[i] = mergeSpec(v.spec[i], s)
		return
	case e != 0:
		m |= 1 << 52
	case m == 0:
		return
	default: // subnormal: same scale as biased exponent 1
		e = 1
	}
	// |x| = m·2^(e−1) grid units: the mantissa sits at absolute bit e−1,
	// across limb (e−1)/64 and the one above, with one carry limb over them.
	limb, sh := (e-1)>>6, uint(e-1)&63
	k := limb - v.lo
	if k < 0 || k+3 > v.w {
		v.reserve(limb, limb+3)
		k = limb - v.lo
	}
	a := v.limbs[i*v.w+k : (i+1)*v.w]
	// A negative addend is added in two's complement: complement the two
	// mantissa limbs, carry in 1, and extend with all-ones limbs above.
	neg := b >> 63
	ext := -neg
	var c uint64
	a[0], c = bits.Add64(a[0], m<<sh^ext, neg)
	a[1], c = bits.Add64(a[1], m>>(64-sh)^ext, c)
	// Above the mantissa, ext+c changes a limb only while c differs from the
	// addend's sign — a carry (or borrow) still rippling.
	j := 2
	for ; c != neg && j < len(a); j++ {
		a[j], c = bits.Add64(a[j], ext, c)
	}
	if j == len(a) && crowded(a[j-1]) {
		v.reserve(v.lo, v.lo+v.w+1)
	}
}

// AddAll absorbs data element-wise: acc[i] += data[i].
func (v *ExactVec) AddAll(data []float64) {
	for i, x := range data {
		v.Add(i, x)
	}
}

// AddAllScaled absorbs the float64-rounded products fl(s·data[i]) —
// exactly the addends the legacy weighted fold produces, so the exact and
// legacy folds agree on what each client contributes and differ only in
// how contributions are summed.
func (v *ExactVec) AddAllScaled(s float64, data []float64) {
	for i, x := range data {
		v.Add(i, s*x)
	}
}

// Merge absorbs another accumulator: the grouping step of a tree fold, an
// aligned limb-wise add in the union of the two windows.
func (v *ExactVec) Merge(o *ExactVec) error {
	if o.Len() != v.Len() {
		return fmt.Errorf("fl: exact merge of %d elements into %d", o.Len(), v.Len())
	}
	for i, s := range o.spec {
		v.spec[i] = mergeSpec(v.spec[i], s)
	}
	if o.w == 0 {
		return nil
	}
	v.reserve(o.lo, o.lo+o.w)
	off, widen := o.lo-v.lo, false
	for i := 0; i < v.n; i++ {
		src, dst := o.limbs[i*o.w:(i+1)*o.w], v.limbs[i*v.w+off:(i+1)*v.w]
		var c uint64
		for j, s := range src {
			dst[j], c = bits.Add64(dst[j], s, c)
		}
		ext := uint64(int64(src[o.w-1]) >> 63)
		for j := o.w; c != ext&1 && j < len(dst); j++ {
			dst[j], c = bits.Add64(dst[j], ext, c)
		}
		widen = widen || crowded(dst[len(dst)-1])
	}
	if widen {
		v.reserve(v.lo, v.lo+v.w+1)
	}
	return nil
}

// magnitude copies |element i| into buf (the heap past exactMaxLimbs) and
// returns its limbs — relative to the window, trimmed of high zero limbs,
// empty for zero — and its sign.
func (v *ExactVec) magnitude(i int, buf *[exactMaxLimbs]uint64) (mag []uint64, neg bool) {
	if mag = buf[:]; v.w > len(buf) {
		mag = make([]uint64, v.w)
	}
	mag = mag[:v.w]
	copy(mag, v.limbs[i*v.w:])
	if neg = v.w > 0 && int64(mag[v.w-1]) < 0; neg {
		negate(mag)
	}
	for len(mag) > 0 && mag[len(mag)-1] == 0 {
		mag = mag[:len(mag)-1]
	}
	return mag, neg
}

// bitsAt returns the 64 bits of mag starting at bit p (zero past the end).
func bitsAt(mag []uint64, p int) uint64 {
	j, s := p>>6, uint(p)&63
	x := mag[j] >> s
	if s != 0 && j+1 < len(mag) {
		x |= mag[j+1] << (64 - s)
	}
	return x
}

// anyBelow reports whether mag has a set bit strictly below bit p.
func anyBelow(mag []uint64, p int) bool {
	j := p >> 6
	for _, l := range mag[:j] {
		if l != 0 {
			return true
		}
	}
	return mag[j]&(1<<(uint(p)&63)-1) != 0
}

// Round returns element i rounded once to the nearest float64 (ties to
// even); sums beyond the float64 range come back as ±Inf, and elements
// poisoned by non-finite addends as their IEEE-merged special value.
func (v *ExactVec) Round(i int) float64 {
	if v.spec[i] != exactFinite {
		return specFloat(v.spec[i])
	}
	var buf [exactMaxLimbs]uint64
	mag, neg := v.magnitude(i, &buf)
	if len(mag) == 0 {
		return 0
	}
	// top is the absolute index of the leading bit. On the 2^-1074 grid a
	// float64's bit pattern is the integer itself up to bit 52 (subnormals
	// and the first normal binade, all exact); above that the pattern is
	// (top−52)<<52 plus the 53 leading bits, and a round-up that overflows
	// the mantissa carries into the exponent field by plain addition.
	rel := len(mag)*64 - 1 - bits.LeadingZeros64(mag[len(mag)-1])
	top := v.lo*64 + rel
	var f uint64
	switch p := rel - 52; {
	case top <= 52:
		f = mag[0]
	case top-51 >= 0x7ff:
		f = 0x7ff << 52
	case p <= 0: // the whole sum fits in the mantissa
		f = uint64(top-52)<<52 + mag[0]<<uint(-p)
	default:
		f = uint64(top-52)<<52 + bitsAt(mag, p)
		if bitsAt(mag, p-1)&1 != 0 && (f&1 != 0 || anyBelow(mag, p-1)) {
			f++
		}
	}
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f)
}

// --- Wire form -------------------------------------------------------------

// ExactScalarWire is one exact accumulator element in wire form: the value
// is sign·Mant·2^Exp with Mant a big-endian minimal mantissa (empty means
// zero), plus the special-value code. ScalarWire emits the canonical form —
// Mant odd with no leading zero byte — so encode/decode round-trips preserve
// the sum bit for bit and equal sums serialize to equal bytes.
type ExactScalarWire struct {
	Spec byte
	Neg  bool
	Exp  int64
	Mant []byte
}

// ScalarWire returns element i in wire form.
func (v *ExactVec) ScalarWire(i int) ExactScalarWire {
	w, _ := v.appendScalarWire(nil, i)
	return w
}

// appendScalarWire is ScalarWire with the mantissa appended to buf (which
// it returns grown), so a whole tensor's mantissas share one allocation.
func (v *ExactVec) appendScalarWire(buf []byte, i int) (ExactScalarWire, []byte) {
	w := ExactScalarWire{Spec: v.spec[i]}
	var scratch [exactMaxLimbs]uint64
	mag, neg := v.magnitude(i, &scratch)
	if len(mag) == 0 {
		return w, buf
	}
	low, n := mantSpan(mag)
	w.Neg = neg
	w.Exp = int64(v.lo*64 + low + exactMinExp)
	start := len(buf)
	buf = append(buf, make([]byte, n)...)
	w.Mant = buf[start : start+n : start+n]
	putMant(w.Mant, mag, low)
	return w, buf
}

// appendScalar writes element i straight from its limbs as the bytes
// appendExactScalar writes for ScalarWire(i): spec, sign, exponent and the
// length-prefixed canonical mantissa. An edge lays its partial frame down
// with it, one scalar at a time, without a wire struct in between.
func (v *ExactVec) appendScalar(b []byte, i int) []byte {
	var scratch [exactMaxLimbs]uint64
	mag, neg := v.magnitude(i, &scratch)
	var exp int64
	low, n := 0, 0
	if len(mag) > 0 {
		low, n = mantSpan(mag)
		exp = int64(v.lo*64 + low + exactMinExp)
	}
	b = append(b, v.spec[i], boolByte(neg))
	b = appendI64(b, exp)
	b = appendU32(b, uint32(n))
	off := len(b)
	b = grown(b, n)
	putMant(b[off:], mag, low)
	return b
}

// mantSpan returns the lowest set bit of a nonzero magnitude and the byte
// length of its canonical mantissa, mag>>low.
func mantSpan(mag []uint64) (low, n int) {
	for mag[low>>6] == 0 {
		low += 64
	}
	low += bits.TrailingZeros64(mag[low>>6])
	top := len(mag)*64 - 1 - bits.LeadingZeros64(mag[len(mag)-1])
	return low, (top-low)/8 + 1
}

// putMant lays the canonical mantissa mag>>low into dst big-endian, 64 bits
// at a time from its low end; len(dst) is mantSpan's byte length.
func putMant(dst []byte, mag []uint64, low int) {
	n := len(dst)
	for p := low; n > 0; p += 64 {
		c := bitsAt(mag, p)
		for k := 0; k < 8 && n > 0; k++ {
			n--
			dst[n] = byte(c)
			c >>= 8
		}
	}
}

// ErrExactEnvelope marks a wire scalar outside what the accumulator can
// hold; validateExactScalar's errors wrap it.
var ErrExactEnvelope = errors.New("fl: exact scalar outside the accumulator envelope")

// validateExactScalar rejects wire scalars outside the accumulator's
// envelope before any slab is sized from them: a known special code, at
// most exactMantBytes of mantissa, no bit below 2^-1074 (Exp ≥ −1074) and
// no bit above exactTopBit. The rule for non-canonical mantissas is that
// they decode to the value they spell: leading zero bytes and trailing zero
// bits are legal and count toward the byte cap and the Exp floor as
// written, but only set bits count toward the top.
func validateExactScalar(w ExactScalarWire) error {
	switch {
	case w.Spec > exactNaN:
		return fmt.Errorf("%w: unknown special code %d", ErrExactEnvelope, w.Spec)
	case len(w.Mant) > exactMantBytes:
		return fmt.Errorf("%w: mantissa of %d bytes exceeds %d", ErrExactEnvelope, len(w.Mant), exactMantBytes)
	case w.Exp < exactMinExp || w.Exp > exactTopBit+exactMinExp:
		return fmt.Errorf("%w: exponent %d outside [%d, %d]", ErrExactEnvelope, w.Exp, exactMinExp, exactTopBit+exactMinExp)
	}
	if top := wireTopBit(w); top > exactTopBit {
		return fmt.Errorf("%w: leading bit 2^%d above 2^%d", ErrExactEnvelope, top+exactMinExp, exactTopBit+exactMinExp)
	}
	return nil
}

// wireTopBit returns the absolute index of a wire scalar's leading set bit,
// or −1 for a zero mantissa.
func wireTopBit(w ExactScalarWire) int {
	for i, b := range w.Mant {
		if b != 0 {
			return int(w.Exp) - exactMinExp + 8*(len(w.Mant)-1-i) + bits.Len8(b) - 1
		}
	}
	return -1
}

// SetScalarWire installs a wire scalar into element i, validating first.
func (v *ExactVec) SetScalarWire(i int, w ExactScalarWire) error {
	if err := validateExactScalar(w); err != nil {
		return err
	}
	v.setScalar(i, w)
	return nil
}

// setScalar installs an already-validated wire scalar into element i.
func (v *ExactVec) setScalar(i int, w ExactScalarWire) {
	v.spec[i] = w.Spec
	top, base := wireTopBit(w), int(w.Exp)-exactMinExp
	if top >= 0 {
		// The scalar is a leaf: keep it strictly below the window's top limb.
		v.reserve(base>>6, top>>6+2)
	}
	a := v.limbs[i*v.w : (i+1)*v.w]
	clear(a)
	if top < 0 {
		return
	}
	// Deposit the mantissa 64 bits at a time from its low end; chunks at or
	// past the top limb can only be a non-canonical form's leading zeros.
	for n, p := len(w.Mant), base-v.lo*64; n > 0 && p>>6 < len(a)-1; p += 64 {
		var c uint64
		for k := uint(0); k < 64 && n > 0; k += 8 {
			n--
			c |= uint64(w.Mant[n]) << k
		}
		j, s := p>>6, uint(p)&63
		a[j] |= c << s
		a[j+1] |= c >> (64 - s)
	}
	if w.Neg {
		negate(a)
	}
}

// ExactTensorWire is one shaped exact-sum tensor in wire form.
type ExactTensorWire struct {
	Shape []int
	Elems []ExactScalarWire
}

// --- Partial folds ---------------------------------------------------------

// Partial is the weight-carrying result of an edge fold: the exact sums
// over some subset of the round's client updates, the count of distinct
// clients folded, and (for the weighted rule) the exact weight total. The
// root composes partials by exact merge, so any partition of the cohort
// into partials — one per shard, one per client, or the whole cohort at
// once — commits identical bits.
type Partial struct {
	Rule    string
	Clients int
	WSum    *ExactVec // single element; nil unless Rule is AggWeighted
	Shapes  [][]int
	Sums    []*ExactVec
}

// Wire converts the partial to its wire form.
func (p *Partial) Wire() *PartialWire {
	w := &PartialWire{Rule: p.Rule, Clients: p.Clients, Sums: make([]ExactTensorWire, len(p.Sums))}
	for i, s := range p.Sums {
		tw := ExactTensorWire{
			Shape: append([]int(nil), p.Shapes[i]...),
			Elems: make([]ExactScalarWire, s.Len()),
		}
		// One backing array for the tensor's mantissas; a typical sum of a
		// few thousand clipped updates is ~100 bits, under 16 bytes.
		mants := make([]byte, 0, 16*s.Len())
		for j := range tw.Elems {
			tw.Elems[j], mants = s.appendScalarWire(mants, j)
		}
		w.Sums[i] = tw
	}
	if p.WSum != nil {
		w.HasWSum = true
		w.WSum = p.WSum.ScalarWire(0)
	}
	return w
}

// PartialWire is the wire form of a Partial, carried by UpdateMsg.Partial
// on edge→root sessions over either codec.
type PartialWire struct {
	Rule    string
	Clients int
	HasWSum bool
	WSum    ExactScalarWire
	Sums    []ExactTensorWire
}

// Validate reports whether the wire partial is structurally sound — rule
// known, counts and shapes bounded, every scalar in the representable
// envelope. Hostile input gets an error, never a panic or an allocation
// balloon.
func (w *PartialWire) Validate() error {
	switch w.Rule {
	case AggFedSGD, AggFedAvg, AggWeighted:
	default:
		return fmt.Errorf("fl: partial carries unknown rule %q", w.Rule)
	}
	if w.Clients < 0 || int64(w.Clients) > 1<<31 {
		return fmt.Errorf("fl: partial client count %d outside [0, 2^31]", w.Clients)
	}
	if (w.Rule == AggWeighted) != w.HasWSum {
		return fmt.Errorf("fl: partial rule %q with weight-sum presence %v", w.Rule, w.HasWSum)
	}
	if len(w.Sums) == 0 || len(w.Sums) > maxWireTensors {
		return fmt.Errorf("fl: partial carries %d tensors (want 1..%d)", len(w.Sums), maxWireTensors)
	}
	for i, t := range w.Sums {
		n, err := validShapeLen(t.Shape)
		if err != nil {
			return fmt.Errorf("fl: partial tensor %d: %w", i, err)
		}
		if len(t.Elems) != n {
			return fmt.Errorf("fl: partial tensor %d has %d elements for shape %v", i, len(t.Elems), t.Shape)
		}
		for j, e := range t.Elems {
			if err := validateExactScalar(e); err != nil {
				return fmt.Errorf("fl: partial tensor %d element %d: %w", i, j, err)
			}
		}
	}
	if w.HasWSum {
		if err := validateExactScalar(w.WSum); err != nil {
			return fmt.Errorf("fl: partial weight sum: %w", err)
		}
	}
	return nil
}

// PartialFromWire validates and decodes a wire partial.
func PartialFromWire(w *PartialWire) (*Partial, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &Partial{
		Rule:    w.Rule,
		Clients: w.Clients,
		Shapes:  make([][]int, len(w.Sums)),
		Sums:    make([]*ExactVec, len(w.Sums)),
	}
	for i, t := range w.Sums {
		p.Shapes[i] = append([]int(nil), t.Shape...)
		v := NewExactVec(len(t.Elems))
		for j, e := range t.Elems {
			v.setScalar(j, e)
		}
		p.Sums[i] = v
	}
	if w.HasWSum {
		p.WSum = NewExactVec(1)
		p.WSum.setScalar(0, w.WSum)
	}
	return p, nil
}

// --- Interfaces ------------------------------------------------------------

// ClientFolder is a fold that takes the client's identity. No runtime
// probes for it; it stays, with ExactAggregator.FoldClient, because
// benchmark/probes.go binds both (ROADMAP 2(a)).
type ClientFolder interface {
	FoldClient(clientID int, update []*tensor.Tensor, weight float64)
}

// PartialFolder is implemented by aggregators that can absorb an edge's
// partial fold — the root of a hierarchical deployment.
type PartialFolder interface {
	FoldPartial(p *Partial) error
}

// --- Exact aggregator ------------------------------------------------------

// ExactAggregator is the exact-arithmetic fold behind hierarchical
// aggregation: one instance serves as a flat exact fold (the parity
// oracle), as an edge fold (forwarding TakePartial upstream), or as a tree
// root (absorbing partials via FoldPartial). Addends per client mirror the
// legacy aggregators exactly — fedsgd folds ΔW, fedavg folds W+ΔW,
// weighted folds fl(w·W)+fl(w·ΔW) with the same weight clamping — and the
// commit applies the same expression shape (params += inv·sum, or zero
// then add-scaled), so the only semantic difference from the legacy float
// fold is that the sum itself never rounds.
type ExactAggregator struct {
	mu     sync.Mutex
	rule   string
	base   []*tensor.Tensor
	shapes [][]int
	sums   []*ExactVec
	wsum   *ExactVec
	n      int
}

// NewExact returns an exact fold for an aggregation rule ("" = fedsgd).
func NewExact(rule string) (*ExactAggregator, error) {
	switch rule {
	case "":
		rule = AggFedSGD
	case AggFedSGD, AggFedAvg, AggWeighted:
	default:
		return nil, fmt.Errorf("fl: unknown aggregation %q", rule)
	}
	a := &ExactAggregator{rule: rule}
	if rule == AggWeighted {
		a.wsum = NewExactVec(1)
	}
	return a, nil
}

// Rule returns the aggregation rule this fold implements.
func (a *ExactAggregator) Rule() string { return a.rule }

// Begin implements Aggregator.
func (a *ExactAggregator) Begin(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	reuse := len(a.sums) == len(params)
	if reuse {
		for i, p := range params {
			if a.sums[i].Len() != p.Len() {
				reuse = false
				break
			}
		}
	}
	if reuse {
		for _, s := range a.sums {
			s.Zero()
		}
		for i, p := range params {
			a.shapes[i] = append(a.shapes[i][:0], p.Shape()...)
		}
	} else {
		a.sums = make([]*ExactVec, len(params))
		a.shapes = make([][]int, len(params))
		for i, p := range params {
			a.sums[i] = NewExactVec(p.Len())
			a.shapes[i] = append([]int(nil), p.Shape()...)
		}
	}
	if a.rule != AggFedSGD {
		if geometryMatches(a.base, params) {
			for i, p := range params {
				a.base[i].CopyFrom(p)
			}
		} else {
			a.base = tensor.CloneAll(params)
		}
	}
	if a.wsum != nil {
		a.wsum.Zero()
	}
	a.n = 0
}

// Fold implements Aggregator: an unweighted fold counts as weight 1.
func (a *ExactAggregator) Fold(update []*tensor.Tensor) { a.FoldWeighted(update, 1) }

// FoldWeighted implements WeightedFolder. Non-weighted rules ignore the
// weight, exactly as their legacy counterparts (which never see one).
// The weighted rule clamps like WeightedFedAvgAggregator.FoldWeighted.
func (a *ExactAggregator) FoldWeighted(update []*tensor.Tensor, weight float64) {
	if !(weight > 0) || math.IsInf(weight, 1) {
		weight = 1
	} else if weight > maxFoldWeight {
		weight = maxFoldWeight
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch a.rule {
	case AggFedSGD:
		for i, u := range update {
			a.sums[i].AddAll(u.Data())
		}
	case AggFedAvg:
		for i, u := range update {
			a.sums[i].AddAll(a.base[i].Data())
			a.sums[i].AddAll(u.Data())
		}
	case AggWeighted:
		for i, u := range update {
			a.sums[i].AddAllScaled(weight, a.base[i].Data())
			a.sums[i].AddAllScaled(weight, u.Data())
		}
		a.wsum.Add(0, weight)
	}
	a.n++
}

// FoldClient is FoldWeighted; the client id is unused (see ClientFolder).
func (a *ExactAggregator) FoldClient(clientID int, update []*tensor.Tensor, weight float64) {
	a.FoldWeighted(update, weight)
}

// FoldPartial implements PartialFolder: the root absorbs one edge's
// partial by exact merge. Geometry or rule mismatches are errors — the
// runtime counts the session as failed instead of poisoning the round.
func (a *ExactAggregator) FoldPartial(p *Partial) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p.Rule != a.rule {
		return fmt.Errorf("fl: folding %q partial into %q aggregator", p.Rule, a.rule)
	}
	if len(p.Sums) != len(a.sums) {
		return fmt.Errorf("fl: partial has %d tensors, round has %d", len(p.Sums), len(a.sums))
	}
	for i := range p.Sums {
		if p.Sums[i].Len() != a.sums[i].Len() {
			return fmt.Errorf("fl: partial tensor %d has %d elements, round has %d", i, p.Sums[i].Len(), a.sums[i].Len())
		}
	}
	for i := range p.Sums {
		if err := a.sums[i].Merge(p.Sums[i]); err != nil {
			return err
		}
	}
	if a.wsum != nil {
		if p.WSum == nil {
			return fmt.Errorf("fl: weighted partial without a weight sum")
		}
		if err := a.wsum.Merge(p.WSum); err != nil {
			return err
		}
	}
	a.n += p.Clients
	return nil
}

// Count implements Aggregator; for a root it counts clients (summed from
// partials), not sessions.
func (a *ExactAggregator) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// Commit implements Aggregator: round each exact sum once, then apply the
// legacy rule's commit expression.
func (a *ExactAggregator) Commit(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		return
	}
	switch a.rule {
	case AggFedSGD:
		inv := 1 / float64(a.n)
		for i, p := range params {
			d := p.Data()
			for j := range d {
				d[j] += float64(inv * a.sums[i].Round(j))
			}
		}
	case AggFedAvg:
		inv := 1 / float64(a.n)
		for i, p := range params {
			p.Zero()
			d := p.Data()
			for j := range d {
				d[j] += float64(inv * a.sums[i].Round(j))
			}
		}
	case AggWeighted:
		ws := a.wsum.Round(0)
		if ws == 0 {
			return
		}
		inv := 1 / ws
		for i, p := range params {
			p.Zero()
			d := p.Data()
			for j := range d {
				d[j] += float64(inv * a.sums[i].Round(j))
			}
		}
	}
}

// TakePartial snapshots the fold as a partial for upstream forwarding. The
// returned partial aliases the aggregator's accumulators and is valid
// until the next Begin; serialize or merge it before reusing the edge.
func (a *ExactAggregator) TakePartial() *Partial {
	a.mu.Lock()
	defer a.mu.Unlock()
	return &Partial{Rule: a.rule, Clients: a.n, WSum: a.wsum, Shapes: a.shapes, Sums: a.sums}
}

// EdgeFold wraps an edge's exact aggregator so a RoundServer can drive it
// without ever committing: the edge's round ends with TakePartial, and
// only the root applies an aggregate to parameters.
func EdgeFold(a *ExactAggregator) Aggregator { return edgeFold{a} }

type edgeFold struct{ *ExactAggregator }

func (edgeFold) Commit([]*tensor.Tensor) {}

// --- Construction ----------------------------------------------------------

// NewAggregatorFor constructs the server fold for an aggregation rule:
// shards ≤ 0 is the legacy float fold (NewAggregator, byte-identical to
// every pre-sharding run), shards ≥ 1 the flat exact fold. In process the
// shard count selects exact arithmetic only; a tree of edge folds exists
// on the simnet fabric alone. fanout and k are unused, kept while
// benchmark/probes.go binds the four-argument form (ROADMAP 2(a)).
//
// Robust rules (median/trimmed/krum) are order statistics over the raw
// update multiset — they are not grouping-invariant, so there is no exact
// partial an edge could forward (a median of shard medians is not the
// median). Any sharded topology combined with a robust rule is a
// configuration error here, up front, rather than a silently wrong commit.
func NewAggregatorFor(rule string, shards, fanout, k int) (Aggregator, error) {
	if shards <= 0 {
		return NewAggregator(rule)
	}
	if RobustAggregation(rule) {
		return nil, fmt.Errorf("fl: robust aggregation %q is not grouping-invariant and cannot run on the exact/tree topology (shards=%d); use shards=0", rule, shards)
	}
	return NewExact(rule)
}
