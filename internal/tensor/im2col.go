package tensor

import "fmt"

// convOut returns the output extent for one spatial dimension.
func convOut(in, k, stride, pad int) int { return (in+2*pad-k)/stride + 1 }

// validRange returns the half-open range of output positions [lo, hi) whose
// input coordinate ox*stride - pad + kx lies inside [0, in); positions
// outside it read (or write) padding. Splitting the inner loops on this
// range removes the per-element bounds branch from the hot path. Both ends
// lie in [0, out]: a tap that sees no input has lo == hi.
func validRange(out, in, kx, stride, pad int) (lo, hi int) {
	// ox*stride - pad + kx >= 0  ⇒  ox >= ceil((pad-kx)/stride)
	if d := pad - kx; d > 0 {
		lo = min((d+stride-1)/stride, out)
	}
	// ox*stride - pad + kx <= in-1  ⇒  ox <= floor((in-1+pad-kx)/stride).
	// A negative numerator means no output position is valid; guard it
	// explicitly because Go division truncates toward zero (e.g. -1/2 = 0,
	// which would wrongly admit ox=0).
	d := in - 1 + pad - kx
	if d < 0 {
		return lo, lo
	}
	hi = min(d/stride+1, out)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Im2Col expands a (C,H,W) image into a (C·K·K × OH·OW) patch matrix: column
// p holds the receptive field of output position p, row r the values one
// kernel tap (ic,ky,kx) sees across all output positions, with padding
// contributing zeros. After Im2Col, a convolution with weights viewed as an
// (OutC × C·K·K) matrix is the single GEMM W·cols.
//
// x may be any tensor of length C·H·W (row views included). dst must be a
// rank-2 (C·K·K × OH·OW) tensor and is fully overwritten; nil allocates.
//
// Most rows are copies of rows already written, since taps one stride
// apart see the same pixels one output position apart. For ky ≥ stride,
// line oy of tap (ic,ky,kx) reads input line oy·stride−pad+ky, which is
// what line oy+1 of tap (ic,ky−stride,kx) reads: all but the row's last
// line is that row moved up one line. For kx ≥ stride, column ox is column
// ox+1 of tap (ic,ky,kx−stride): each remaining line is that row's line
// moved left one element, and only its last column is read from the
// image. Only the taps with kx < stride gather their remaining lines — all
// of them where ky < stride too, the last one elsewhere. Every value is
// moved, never computed, so the matrix is the gather's bit for bit
// (FuzzIm2Col).
func Im2Col(dst, x *Tensor, c, h, w, k, stride, pad int) *Tensor {
	if x.Len() != c*h*w {
		panic(fmt.Sprintf("tensor: Im2Col input length %d, want %d", x.Len(), c*h*w))
	}
	oh, ow := convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	rows, cols := c*k*k, oh*ow
	if dst == nil {
		dst = New(rows, cols)
	} else if len(dst.shape) != 2 || dst.shape[0] != rows || dst.shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2Col dst shape %v, want (%d,%d)", dst.shape, rows, cols))
	}
	if oh <= 0 || ow <= 0 {
		return dst
	}
	dd := dst.data
	for ic := 0; ic < c; ic++ {
		img := x.data[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				r := (ic*k+ky)*k + kx
				drow := dd[r*cols : (r+1)*cols]
				first := 0 // the first line not copied from the row above
				if ky >= stride {
					copy(drow, dd[(r-stride*k)*cols+ow:(r-stride*k+1)*cols])
					first = oh - 1
				}
				if kx >= stride {
					copy(drow[first*ow:], dd[(r-stride)*cols+first*ow+1:(r-stride+1)*cols])
					ix := (ow-1)*stride - pad + kx
					for oy := first; oy < oh; oy++ {
						v := 0.0
						if iy := oy*stride - pad + ky; iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = img[iy*w+ix]
						}
						drow[oy*ow+ow-1] = v
					}
					continue
				}
				lo, hi := validRange(ow, w, kx, stride, pad)
				for oy := first; oy < oh; oy++ {
					dseg := drow[oy*ow : (oy+1)*ow]
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h || lo == hi {
						clear(dseg)
						continue
					}
					clear(dseg[:lo])
					clear(dseg[hi:])
					xrow := img[iy*w : (iy+1)*w]
					ix := lo*stride - pad + kx
					if stride == 1 {
						copy(dseg[lo:hi], xrow[ix:])
						continue
					}
					for ox := lo; ox < hi; ox++ {
						dseg[ox] = xrow[ix]
						ix += stride
					}
				}
			}
		}
	}
	return dst
}

// Col2Im scatters a (C·K·K × OH·OW) patch-gradient matrix back to image
// space, summing overlapping taps — the adjoint of Im2Col, used for the
// input gradient of a convolution. dst must have length C·H·W and is
// overwritten; nil allocates a (C,H,W) tensor.
func Col2Im(dst, cols *Tensor, c, h, w, k, stride, pad int) *Tensor {
	oh, ow := convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	rows, colN := c*k*k, oh*ow
	if len(cols.shape) != 2 || cols.shape[0] != rows || cols.shape[1] != colN {
		panic(fmt.Sprintf("tensor: Col2Im cols shape %v, want (%d,%d)", cols.shape, rows, colN))
	}
	if dst == nil {
		dst = New(c, h, w)
	} else if dst.Len() != c*h*w {
		panic(fmt.Sprintf("tensor: Col2Im dst length %d, want %d", dst.Len(), c*h*w))
	}
	dst.Zero()
	cd, dd := cols.data, dst.data
	row := 0
	for ic := 0; ic < c; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				crow := cd[row*colN : (row+1)*colN]
				oxLo, oxHi := validRange(ow, w, kx, stride, pad)
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					drow := dd[(ic*h+iy)*w : (ic*h+iy+1)*w]
					cseg := crow[oy*ow : (oy+1)*ow]
					ix := oxLo*stride - pad + kx
					for ox := oxLo; ox < oxHi; ox++ {
						drow[ix] += cseg[ox]
						ix += stride
					}
				}
				row++
			}
		}
	}
	return dst
}
