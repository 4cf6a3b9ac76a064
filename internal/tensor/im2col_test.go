package tensor

import (
	"math"
	"testing"
)

// im2colGather is Im2Col as a gather of every element from the image, one
// output line at a time: the loop Im2Col ran before it built rows from
// rows, kept as its oracle.
func im2colGather(dst, x *Tensor, c, h, w, k, stride, pad int) {
	oh, ow := convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	cols := oh * ow
	xd, dd := x.data, dst.data
	row := 0
	for ic := 0; ic < c; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				drow := dd[row*cols : (row+1)*cols]
				oxLo, oxHi := validRange(ow, w, kx, stride, pad)
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + ky
					dseg := drow[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= h {
						for i := range dseg {
							dseg[i] = 0
						}
						continue
					}
					xrow := xd[(ic*h+iy)*w : (ic*h+iy+1)*w]
					for ox := 0; ox < oxLo; ox++ {
						dseg[ox] = 0
					}
					if stride == 1 {
						if oxLo < oxHi {
							copy(dseg[oxLo:oxHi], xrow[oxLo-pad+kx:])
						}
					} else {
						ix := oxLo*stride - pad + kx
						for ox := oxLo; ox < oxHi; ox++ {
							dseg[ox] = xrow[ix]
							ix += stride
						}
					}
					for ox := oxHi; ox < ow; ox++ {
						dseg[ox] = 0
					}
				}
				row++
			}
		}
	}
}

// col2imScatter is Col2Im's scatter loop, kept as its oracle: a faster
// Col2Im must sum every pixel's taps in this order.
func col2imScatter(dst, cols *Tensor, c, h, w, k, stride, pad int) {
	oh, ow := convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	colN := oh * ow
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
}

// FuzzIm2Col holds Im2Col to im2colGather and Col2Im to col2imScatter bit
// for bit, over images of hostile values (signed zeros, NaNs with their
// payloads, infinities, subnormals), into a destination full of them, at
// strides 1–3, pads 0–2 and every kernel up to the padded extent — k past
// in+pad included, where a tap sees no pixel at all. Im2Col only moves
// values, so NaN payloads are compared too.
func FuzzIm2Col(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(28), uint8(28), uint8(5), uint8(2), uint8(2), uint8(16))
	f.Add(uint64(2), uint8(8), uint8(14), uint8(14), uint8(5), uint8(2), uint8(2), uint8(64))
	f.Add(uint64(3), uint8(2), uint8(1), uint8(1), uint8(5), uint8(1), uint8(2), uint8(255))
	f.Add(uint64(4), uint8(3), uint8(7), uint8(5), uint8(3), uint8(3), uint8(1), uint8(128))
	f.Add(uint64(5), uint8(1), uint8(4), uint8(9), uint8(2), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, cb, hb, wb, kb, sb, pb, pct uint8) {
		c, h, w := 1+int(cb)%8, 1+int(hb)%30, 1+int(wb)%30
		stride, pad := 1+int(sb)%3, int(pb)%3
		k := 1 + int(kb)%(min(h, w)+2*pad)
		oh, ow := convOut(h, k, stride, pad), convOut(w, k, stride, pad)
		x := New(c, h, w)
		fillHostile(x.data, seed, pct)
		got, want := New(c*k*k, oh*ow), New(c*k*k, oh*ow)
		fillHostile(got.data, seed^0x5555, 255)
		copy(want.data, got.data)
		Im2Col(got, x, c, h, w, k, stride, pad)
		im2colGather(want, x, c, h, w, k, stride, pad)
		for i, v := range got.data {
			if math.Float64bits(v) != math.Float64bits(want.data[i]) {
				t.Fatalf("Im2Col c=%d %d×%d k=%d stride=%d pad=%d: row %d col %d is %#016x, gather %#016x",
					c, h, w, k, stride, pad, i/(oh*ow), i%(oh*ow), math.Float64bits(v), math.Float64bits(want.data[i]))
			}
		}
		cols := New(c*k*k, oh*ow)
		fillHostile(cols.data, seed^0xaaaa, pct)
		img, ref := New(c, h, w), New(c, h, w)
		Col2Im(img, cols, c, h, w, k, stride, pad)
		col2imScatter(ref, cols, c, h, w, k, stride, pad)
		for i, v := range img.data {
			if !sameOrBothNaN(v, ref.data[i]) {
				t.Fatalf("Col2Im c=%d %d×%d k=%d stride=%d pad=%d: pixel %d is %#016x, scatter %#016x",
					c, h, w, k, stride, pad, i, math.Float64bits(v), math.Float64bits(ref.data[i]))
			}
		}
	})
}

// BenchmarkIm2Col prices Im2Col on the MNIST CNN's two conv layers
// (nn.ImageCNN at 1×28×28): conv1 reads the 1×28×28 image, conv2 the
// 8×14×14 feature map, both with 5×5 kernels at stride 2, pad 2.
func BenchmarkIm2Col(b *testing.B) {
	for _, l := range []struct {
		name    string
		c, h, w int
	}{{"conv1", 1, 28, 28}, {"conv2", 8, 14, 14}} {
		b.Run(l.name, func(b *testing.B) {
			x := New(l.c, l.h, l.w)
			NewRNG(1).FillUniform(x, -1, 1)
			dst := Im2Col(nil, x, l.c, l.h, l.w, 5, 2, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Im2Col(dst, x, l.c, l.h, l.w, 5, 2, 2)
			}
		})
	}
}
