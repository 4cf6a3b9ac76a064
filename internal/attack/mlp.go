package attack

import (
	"fmt"

	"fedcdp/internal/tensor"
)

// Activation kinds supported by the attack MLP. Both are C² smooth, which
// the second-order chain requires (ReLU's second derivative is zero a.e.,
// which kills gradient-matching signal).
const (
	ActSigmoid = "sigmoid"
	ActTanh    = "tanh"
)

// MLP is a fully connected network y = W_L φ(…φ(W_1 x + b_1)…) + b_L with
// softmax cross-entropy loss, supporting first- and second-order backprop.
type MLP struct {
	Sizes []int // [in, hidden..., classes]
	Ws    []*tensor.Tensor
	Bs    []*tensor.Tensor
	Act   string
}

// NewMLP builds an MLP with Xavier-initialized weights.
func NewMLP(sizes []int, act string, rng *tensor.RNG) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("attack: MLP needs at least [in out] sizes, got %v", sizes))
	}
	if act != ActSigmoid && act != ActTanh {
		panic(fmt.Sprintf("attack: unsupported activation %q", act))
	}
	m := &MLP{Sizes: append([]int(nil), sizes...), Act: act}
	for l := 0; l+1 < len(sizes); l++ {
		w := tensor.New(sizes[l+1], sizes[l])
		rng.Xavier(w, sizes[l], sizes[l+1])
		m.Ws = append(m.Ws, w)
		m.Bs = append(m.Bs, tensor.New(sizes[l+1]))
	}
	return m
}

// Layers returns the number of weight layers.
func (m *MLP) Layers() int { return len(m.Ws) }

// act, actPrime and actSecond evaluate φ, φ′ and φ″ element-wise.
func (m *MLP) act(v float64) float64 {
	if m.Act == ActSigmoid {
		return sigmoidF(v)
	}
	return tanhF(v)
}

func (m *MLP) actPrimeFromZ(z float64) float64 {
	if m.Act == ActSigmoid {
		s := sigmoidF(z)
		return s * (1 - s)
	}
	t := tanhF(z)
	return 1 - float64(t*t)
}

func (m *MLP) actSecondFromZ(z float64) float64 {
	if m.Act == ActSigmoid {
		s := sigmoidF(z)
		return s * (1 - s) * (1 - 2*s)
	}
	t := tanhF(z)
	return -2 * t * (1 - float64(t*t))
}

// trace holds the forward/backward intermediates of one example.
type trace struct {
	a     []*tensor.Tensor // a[0]=x, a[l+1]=φ(z[l]) (last layer identity)
	z     []*tensor.Tensor // pre-activations
	p     *tensor.Tensor   // softmax probabilities
	delta []*tensor.Tensor // backprop errors per layer
	c     []*tensor.Tensor // c[l] = W[l+1]ᵀ delta[l+1] (l < L-1)
}

// forwardBackward runs a full pass and returns the trace, the per-layer
// weight gradients G[l] = delta[l]·a[l]ᵀ, and bias gradients delta[l].
func (m *MLP) forwardBackward(x *tensor.Tensor, label int) (*trace, []*tensor.Tensor, []*tensor.Tensor) {
	L := m.Layers()
	tr := &trace{
		a:     make([]*tensor.Tensor, L+1),
		z:     make([]*tensor.Tensor, L),
		delta: make([]*tensor.Tensor, L),
		c:     make([]*tensor.Tensor, L),
	}
	tr.a[0] = x
	for l := 0; l < L; l++ {
		z := tensor.MatVec(m.Ws[l], tr.a[l])
		z.Add(m.Bs[l])
		tr.z[l] = z
		if l < L-1 {
			a := z.Clone()
			d := a.Data()
			for i, v := range d {
				d[i] = m.act(v)
			}
			tr.a[l+1] = a
		} else {
			tr.a[l+1] = z // logits
		}
	}

	// Softmax + cross-entropy error at the top.
	tr.p = softmax(tr.z[L-1])
	top := tr.p.Clone()
	top.Data()[label]--
	tr.delta[L-1] = top
	for l := L - 2; l >= 0; l-- {
		c := tensor.MatVecT(m.Ws[l+1], tr.delta[l+1])
		tr.c[l] = c
		d := c.Clone()
		dd, zd := d.Data(), tr.z[l].Data()
		for i := range dd {
			dd[i] *= m.actPrimeFromZ(zd[i])
		}
		tr.delta[l] = d
	}

	gw := make([]*tensor.Tensor, L)
	gb := make([]*tensor.Tensor, L)
	for l := 0; l < L; l++ {
		g := tensor.New(m.Sizes[l+1], m.Sizes[l])
		tensor.AddOuter(g, 1, tr.delta[l], tr.a[l])
		gw[l] = g
		gb[l] = tr.delta[l].Clone()
	}
	return tr, gw, gb
}

// Gradients returns the loss and the per-example weight/bias gradients.
func (m *MLP) Gradients(x *tensor.Tensor, label int) (loss float64, gw, gb []*tensor.Tensor) {
	tr, gw, gb := m.forwardBackward(x, label)
	pl := tr.p.Data()[label]
	if pl < 1e-300 {
		pl = 1e-300
	}
	return -ln(pl), gw, gb
}

// ExampleGradients returns each example's raw gradient as one list, the
// Layers() weight gradients then the Layers() bias gradients — the form the
// leak oracle (core.Config.Leak) consumes and returns.
func (m *MLP) ExampleGradients(xs []*tensor.Tensor, labels []int) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(xs))
	for j, x := range xs {
		_, gw, gb := m.forwardBackward(x, labels[j])
		out[j] = append(gw, gb...)
	}
	return out
}

// Predict returns the argmax class of the logits.
func (m *MLP) Predict(x *tensor.Tensor) int {
	L := m.Layers()
	a := x
	for l := 0; l < L; l++ {
		z := tensor.MatVec(m.Ws[l], a)
		z.Add(m.Bs[l])
		if l < L-1 {
			d := z.Data()
			for i, v := range d {
				d[i] = m.act(v)
			}
		}
		a = z
	}
	best, bestIdx := a.Data()[0], 0
	for i, v := range a.Data() {
		if v > best {
			best = v
			bestIdx = i
		}
	}
	return bestIdx
}

// GradMatch evaluates the gradient-matching objective for a candidate batch:
//
//	D(x₁..x_B) = Σ_l ‖ (1/B)Σ_j G_l(x_j) − G*_l ‖² + ‖ (1/B)Σ_j δ_l(x_j) − b*_l ‖²
//
// and returns D together with ∇_{x_j} D for every batch element, computed by
// reverse-mode differentiation through the backpropagation computation
// itself (second-order chain). B=1 is the per-example (type-2) attack.
func (m *MLP) GradMatch(xs []*tensor.Tensor, labels []int, targetW, targetB []*tensor.Tensor) (float64, []*tensor.Tensor) {
	return m.GradMatchMasked(xs, labels, targetW, targetB, nil, nil)
}

// GradMatchMasked is GradMatch restricted to a subset of gradient entries:
// residuals are multiplied element-wise by the 0/1 masks before entering the
// objective. This models an adversary attacking selectively shared gradients
// (DSSGD, communication-efficient FL) who knows which entries were
// transmitted. nil masks match everything.
func (m *MLP) GradMatchMasked(xs []*tensor.Tensor, labels []int, targetW, targetB, maskW, maskB []*tensor.Tensor) (float64, []*tensor.Tensor) {
	L := m.Layers()
	if len(xs) == 0 || len(xs) != len(labels) {
		panic(fmt.Sprintf("attack: GradMatch batch mismatch: %d inputs, %d labels", len(xs), len(labels)))
	}
	if len(targetW) != L || len(targetB) != L {
		panic(fmt.Sprintf("attack: GradMatch target has %d/%d layers, want %d", len(targetW), len(targetB), L))
	}
	if (maskW != nil && len(maskW) != L) || (maskB != nil && len(maskB) != L) {
		panic("attack: GradMatch mask layer count mismatch")
	}
	B := len(xs)
	invB := 1 / float64(B)

	traces := make([]*trace, B)
	meanGW := make([]*tensor.Tensor, L)
	meanGB := make([]*tensor.Tensor, L)
	for l := 0; l < L; l++ {
		meanGW[l] = tensor.New(m.Sizes[l+1], m.Sizes[l])
		meanGB[l] = tensor.New(m.Sizes[l+1])
	}
	for j, x := range xs {
		tr, gw, gb := m.forwardBackward(x, labels[j])
		traces[j] = tr
		for l := 0; l < L; l++ {
			meanGW[l].AddScaled(invB, gw[l])
			meanGB[l].AddScaled(invB, gb[l])
		}
	}

	// Residuals and objective value.
	var loss float64
	barGW := make([]*tensor.Tensor, L) // dD/d(meanGW) = 2·residual
	barGB := make([]*tensor.Tensor, L)
	for l := 0; l < L; l++ {
		rw := meanGW[l].Clone()
		rw.Sub(targetW[l])
		rb := meanGB[l].Clone()
		rb.Sub(targetB[l])
		if maskW != nil {
			applyMask(rw, maskW[l])
		}
		if maskB != nil {
			applyMask(rb, maskB[l])
		}
		loss += rw.Dot(rw) + rb.Dot(rb)
		rw.Scale(2)
		rb.Scale(2)
		barGW[l] = rw
		barGB[l] = rb
	}

	grads := make([]*tensor.Tensor, B)
	for j := range xs {
		grads[j] = m.inputAdjoint(traces[j], barGW, barGB, invB)
	}
	return loss, grads
}

// inputAdjoint computes ∇ₓD for one batch element given the shared
// residual adjoints. scale = 1/B accounts for batch averaging of gradients.
func (m *MLP) inputAdjoint(tr *trace, barGW, barGB []*tensor.Tensor, scale float64) *tensor.Tensor {
	L := m.Layers()

	// direct(δ_l): contributions of G_l = δ_l a_lᵀ and the bias gradient.
	direct := make([]*tensor.Tensor, L)
	for l := 0; l < L; l++ {
		d := tensor.MatVec(barGW[l], tr.a[l])
		d.AddScaled(1, barGB[l])
		d.Scale(scale)
		direct[l] = d
	}

	// Ascending pass through the δ recursion (δ_l depends on δ_{l+1}):
	// adjoints flow from δ_0 up to δ_{L-1}.
	barDelta := make([]*tensor.Tensor, L)
	zbarD := make([]*tensor.Tensor, L) // δ-chain contribution to bar(z_l)
	barDelta[0] = direct[0].Clone()
	if L == 1 {
		// Single layer: only the softmax term below applies.
	}
	for l := 0; l+1 < L; l++ {
		// δ_l = c_l ⊙ φ'(z_l)
		barC := barDelta[l].Clone()
		zb := barDelta[l].Clone()
		bcd, zbd := barC.Data(), zb.Data()
		zd, cd := tr.z[l].Data(), tr.c[l].Data()
		for i := range bcd {
			bcd[i] *= m.actPrimeFromZ(zd[i])
			zbd[i] *= cd[i] * m.actSecondFromZ(zd[i])
		}
		zbarD[l] = zb
		next := tensor.MatVec(m.Ws[l+1], barC)
		next.Add(direct[l+1])
		barDelta[l+1] = next
	}
	// Top layer: δ_{L-1} = softmax(z_{L-1}) − y, so
	// bar(z_{L-1}) = (diag(p) − p pᵀ)·bar(δ_{L-1}).
	top := barDelta[L-1]
	p := tr.p
	pDotBar := p.Dot(top)
	zbTop := tensor.New(p.Len())
	ztd, pd, td := zbTop.Data(), p.Data(), top.Data()
	for i := range ztd {
		ztd[i] = float64(pd[i]*td[i]) - float64(pd[i]*pDotBar)
	}
	zbarD[L-1] = zbTop

	// Descending pass through the forward chain.
	barZ := make([]*tensor.Tensor, L)
	barZ[L-1] = zbarD[L-1]
	for l := L - 2; l >= 0; l-- {
		// bar(a_{l+1}) = barGW[l+1]ᵀ δ_{l+1}·scale + W_{l+1}ᵀ bar(z_{l+1})
		barA := tensor.MatVecT(barGW[l+1], tr.delta[l+1])
		barA.Scale(scale)
		barA.AddScaled(1, tensor.MatVecT(m.Ws[l+1], barZ[l+1]))
		// bar(z_l) = zbarD[l] + bar(a_{l+1}) ⊙ φ'(z_l)
		bz := barA
		bzd, zd := bz.Data(), tr.z[l].Data()
		for i := range bzd {
			bzd[i] *= m.actPrimeFromZ(zd[i])
		}
		bz.Add(zbarD[l])
		barZ[l] = bz
	}

	// bar(x) = barGW[0]ᵀ δ_0·scale + W_0ᵀ bar(z_0)
	gx := tensor.MatVecT(barGW[0], tr.delta[0])
	gx.Scale(scale)
	gx.AddScaled(1, tensor.MatVecT(m.Ws[0], barZ[0]))
	return gx
}
