package tensor

// Arena is a scratch-tensor recycler for hot loops: Get hands out a zeroed
// tensor, Put returns it for reuse by any later Get of the same element
// count (shape is rewritten on reuse). The federated trainer keeps one arena
// per worker and reuses it across rounds, so steady-state local training
// allocates no data buffers (only constant-size view headers).
//
// An Arena is NOT safe for concurrent use; give each goroutine its own. All
// methods tolerate a nil receiver by falling back to plain allocation, so
// arena-aware code paths need no nil checks.
type Arena struct {
	free map[int][]*Tensor
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{free: make(map[int][]*Tensor)} }

// Get returns a zeroed tensor of the given shape, reusing a returned buffer
// of the same element count when one is available. A reused tensor keeps
// its shape slice when the rank matches, so a hit allocates nothing.
func (a *Arena) Get(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	bufs := a.free[n]
	if len(bufs) == 0 {
		return New(shape...)
	}
	t := bufs[len(bufs)-1]
	a.free[n] = bufs[:len(bufs)-1]
	if len(t.shape) != len(shape) {
		t.shape = make([]int, len(shape))
	}
	copy(t.shape, shape)
	t.Zero()
	return t
}

// Put returns tensors to the arena for reuse. The caller must not touch them
// afterwards. Nil tensors and nil arenas are ignored.
func (a *Arena) Put(ts ...*Tensor) {
	if a == nil {
		return
	}
	for _, t := range ts {
		if t == nil {
			continue
		}
		a.free[len(t.data)] = append(a.free[len(t.data)], t)
	}
}
