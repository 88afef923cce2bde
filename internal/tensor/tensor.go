// Package tensor implements the minimal dense numerics the reproduction
// needs: a flat float64 tensor with explicit shape, matrix multiply, and
// im2col/col2im lowering for strided 2-D convolution. It is deliberately
// small — the point of this repository is the spiking learning system, not
// a BLAS — but the conv lowering is exact, so the ANN pretraining stage and
// the spiking conv layers share one definition of convolution.
package tensor

import "fmt"

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dim %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, have %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at the given indices (bounds-checked).
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set writes the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.Shape[i]))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Reshape returns a view with a new shape of equal element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Scale multiplies every element by a.
func (t *Tensor) Scale(a float64) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddInPlace adds o element-wise into t. Shapes must match in length.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(o.Data) != len(t.Data) {
		panic("tensor: AddInPlace length mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// MatMul computes C = A·B for A (m×k) and B (k×n), allocating C (m×n).
// A and B are interpreted as matrices regardless of declared rank.
func MatMul(a, b *Tensor, m, k, n int) *Tensor {
	if len(a.Data) != m*k || len(b.Data) != k*n {
		panic(fmt.Sprintf("tensor: MatMul dims %dx%d · %dx%d vs data %d, %d", m, k, k, n, len(a.Data), len(b.Data)))
	}
	c := New(m, n)
	// ikj loop order: streams B rows, decent cache behaviour without blocking.
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// ConvShape returns the output spatial size of a convolution with the given
// input size, kernel, stride and padding: floor((in+2p-k)/s)+1.
func ConvShape(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col lowers an input image (C×H×W, row-major) to a matrix of patch
// columns with shape (C*KH*KW) × (OH*OW), so convolution becomes a matmul
// of the (F × C*KH*KW) filter matrix with it.
func Im2Col(img *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvShape(h, kh, stride, pad)
	ow := ConvShape(w, kw, stride, pad)
	rows := c * kh * kw
	cols := oh * ow
	out := New(rows, cols)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (ch*kh+ky)*kw + kx
				dst := out.Data[row*cols : (row+1)*cols]
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kx - pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							dst[oy*ow+ox] = img.Data[(ch*h+iy)*w+ix]
						}
					}
				}
			}
		}
	}
	return out
}

// Col2Im scatters a patch-column matrix (C*KH*KW × OH*OW) back to image
// space (C×H×W), accumulating overlapping contributions. It is the adjoint
// of Im2Col and is used for the conv backward pass.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvShape(h, kh, stride, pad)
	ow := ConvShape(w, kw, stride, pad)
	ncols := oh * ow
	img := New(c, h, w)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (ch*kh+ky)*kw + kx
				src := cols.Data[row*ncols : (row+1)*ncols]
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kx - pad
						if ix >= 0 && ix < w {
							img.Data[(ch*h+iy)*w+ix] += src[oy*ow+ox]
						}
					}
				}
			}
		}
	}
	return img
}

// ArgMax returns the index of the maximum element (first on ties), or -1
// for an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		return -1
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}
