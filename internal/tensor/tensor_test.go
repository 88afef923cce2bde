package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"emstdp/internal/rng"
)

func TestNewAndShape(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d", a.Len())
	}
	a.Set(7, 1, 2, 3)
	if a.At(1, 2, 3) != 7 {
		t.Error("At/Set round trip failed")
	}
	if a.Data[23] != 7 {
		t.Error("row-major layout wrong: last index should be offset 23")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshape(t *testing.T) {
	a := New(2, 6)
	a.Data[5] = 9
	b := a.Reshape(3, 4)
	if b.At(1, 1) != 9 {
		t.Error("reshape must share data")
	}
	b.Set(4, 0, 0)
	if a.Data[0] != 4 {
		t.Error("reshape must be a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(3)
	a.Data[0] = 1
	b := a.Clone()
	b.Data[0] = 2
	if a.Data[0] != 1 {
		t.Error("clone shares storage")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b, 2, 3, 2)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := New(4, 4)
	r.FillUniform(a.Data, -1, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	c := MatMul(a, id, 4, 4, 4)
	for i := range a.Data {
		if math.Abs(c.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatalf("A·I != A at %d", i)
		}
	}
}

// MatMul distributes over addition: A·(B+C) == A·B + A·C.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 2+r.Intn(4), 2+r.Intn(4), 2+r.Intn(4)
		a, b, c := New(m, k), New(k, n), New(k, n)
		r.FillUniform(a.Data, -2, 2)
		r.FillUniform(b.Data, -2, 2)
		r.FillUniform(c.Data, -2, 2)
		bc := b.Clone()
		bc.AddInPlace(c)
		left := MatMul(a, bc, m, k, n)
		ab := MatMul(a, b, m, k, n)
		ac := MatMul(a, c, m, k, n)
		ab.AddInPlace(ac)
		for i := range left.Data {
			if math.Abs(left.Data[i]-ab.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConvShape(t *testing.T) {
	tests := []struct{ in, k, s, p, want int }{
		{28, 5, 2, 0, 12},
		{12, 3, 2, 0, 5},
		{32, 5, 2, 0, 14},
		{14, 3, 2, 0, 6},
		{5, 3, 1, 1, 5},
		{7, 7, 1, 0, 1},
	}
	for _, tt := range tests {
		if got := ConvShape(tt.in, tt.k, tt.s, tt.p); got != tt.want {
			t.Errorf("ConvShape(%d,%d,%d,%d) = %d, want %d", tt.in, tt.k, tt.s, tt.p, got, tt.want)
		}
	}
}

// naiveConv computes a single-filter convolution directly for comparison.
func naiveConv(img *Tensor, c, h, w int, filt []float64, kh, kw, stride, pad int) []float64 {
	oh := ConvShape(h, kh, stride, pad)
	ow := ConvShape(w, kw, stride, pad)
	out := make([]float64, oh*ow)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			s := 0.0
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							continue
						}
						s += img.Data[(ch*h+iy)*w+ix] * filt[(ch*kh+ky)*kw+kx]
					}
				}
			}
			out[oy*ow+ox] = s
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		c := 1 + r.Intn(3)
		h := 6 + r.Intn(6)
		w := 6 + r.Intn(6)
		kh := 2 + r.Intn(3)
		kw := 2 + r.Intn(3)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		img := New(c, h, w)
		r.FillUniform(img.Data, -1, 1)
		filt := make([]float64, c*kh*kw)
		r.FillUniform(filt, -1, 1)

		cols := Im2Col(img, c, h, w, kh, kw, stride, pad)
		f := FromSlice(filt, 1, len(filt))
		got := MatMul(f, cols, 1, len(filt), cols.Shape[1])
		want := naiveConv(img, c, h, w, filt, kh, kw, stride, pad)
		for i := range want {
			if math.Abs(got.Data[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: im2col conv mismatch at %d: %v vs %v", trial, i, got.Data[i], want[i])
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: <Im2Col(x), y> == <x, Col2Im(y)> for all
// x, y. This is exactly the property the conv backward pass needs.
func TestCol2ImAdjoint(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		c, h, w := 1+r.Intn(2), 5+r.Intn(4), 5+r.Intn(4)
		kh, kw, stride, pad := 3, 3, 1+r.Intn(2), r.Intn(2)
		x := New(c, h, w)
		r.FillUniform(x.Data, -1, 1)
		cx := Im2Col(x, c, h, w, kh, kw, stride, pad)
		y := New(cx.Shape[0], cx.Shape[1])
		r.FillUniform(y.Data, -1, 1)

		lhs := 0.0
		for i := range cx.Data {
			lhs += cx.Data[i] * y.Data[i]
		}
		ciy := Col2Im(y, c, h, w, kh, kw, stride, pad)
		rhs := 0.0
		for i := range x.Data {
			rhs += x.Data[i] * ciy.Data[i]
		}
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("trial %d: adjoint property violated: %v vs %v", trial, lhs, rhs)
		}
	}
}

func TestArgMax(t *testing.T) {
	if FromSlice([]float64{1, 5, 3}, 3).ArgMax() != 1 {
		t.Error("ArgMax basic")
	}
	if FromSlice([]float64{2, 2, 2}, 3).ArgMax() != 0 {
		t.Error("ArgMax tie should pick first")
	}
	if New(0).ArgMax() != -1 {
		t.Error("ArgMax empty should be -1")
	}
}

func TestSumScale(t *testing.T) {
	a := FromSlice([]float64{1, -4, 2}, 3)
	if a.Sum() != -1 {
		t.Error("Sum")
	}
	a.Scale(2)
	if a.Data[1] != -8 {
		t.Error("Scale")
	}
}
