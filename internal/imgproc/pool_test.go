package imgproc

import (
	"math"
	"testing"
)

func TestGetImageIsZeroedLikeNewImage(t *testing.T) {
	// Dirty a buffer, return it, and make sure the recycled image comes back
	// clean — pooled allocation must be observationally identical to
	// NewImage.
	im := GetImage(13, 7)
	for i := range im.Pix {
		im.Pix[i] = 42
	}
	PutImage(im)
	for try := 0; try < 8; try++ {
		got := GetImage(13, 7)
		if got.W != 13 || got.H != 7 || len(got.Pix) != 13*7 {
			t.Fatalf("GetImage shape: %dx%d len %d", got.W, got.H, len(got.Pix))
		}
		for i, v := range got.Pix {
			if v != 0 {
				t.Fatalf("recycled pixel %d = %v, want 0", i, v)
			}
		}
		PutImage(got)
	}
}

func TestPutImagePoisonsHandle(t *testing.T) {
	im := GetImage(4, 4)
	PutImage(im)
	if im.Pix != nil {
		t.Fatal("PutImage left Pix attached; use-after-Put would be silent")
	}
	// Double-Put of a poisoned handle must be a no-op.
	PutImage(im)
	PutImage(nil)
}

func TestPoolStatsMonotonic(t *testing.T) {
	g0, _, p0 := PoolStats()
	im := GetImage(9, 9)
	PutImage(im)
	_ = GetImage(9, 9)
	g1, _, p1 := PoolStats()
	if g1 < g0+2 {
		t.Fatalf("gets did not advance: %d -> %d", g0, g1)
	}
	if p1 < p0+1 {
		t.Fatalf("puts did not advance: %d -> %d", p0, p1)
	}
}

// separableAt is the reference two-pass convolution: every tap reads
// through the clamping Image.At, accumulating in kernel order from zero.
func separableAt(im *Image, kx, ky []float32) *Image {
	rx, ry := len(kx)/2, len(ky)/2
	tmp := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var acc float32
			for i := -rx; i <= rx; i++ {
				acc += kx[i+rx] * im.At(x+i, y)
			}
			tmp.Set(x, y, acc)
		}
	}
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var acc float32
			for i := -ry; i <= ry; i++ {
				acc += ky[i+ry] * tmp.At(x, y+i)
			}
			out.Set(x, y, acc)
		}
	}
	return out
}

func TestSeparableFilterMatchesDirectConvolution(t *testing.T) {
	// The row-slice passes and the pooled scratch must not change a single
	// bit of the result relative to the At()-based two-pass reference.
	pattern := func(w, h int) *Image {
		im := NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = float32(i%7) * 0.25
		}
		return im
	}
	// A negative tap times a zero sample is -0, which the zero start of
	// every sum absorbs; an all-negative kernel over a mostly zero image
	// makes that visible in the output bits.
	sparse := NewImage(9, 7)
	sparse.Set(4, 3, 1)
	neg := []float32{-0.25, -0.5, -0.25}
	// Odd moment kernel with negative taps, as in Farneback's polyExpand.
	g := GaussianKernel1D(1.1)[1:6]
	k1 := make([]float32, len(g))
	for i := range g {
		k1[i] = float32(i-2) * g[i]
	}
	gauss13 := GaussianKernel1D(1.8)
	for _, tc := range []struct {
		name   string
		im     *Image
		kx, ky []float32
	}{
		{"3-tap", pattern(9, 6), []float32{0.25, 0.5, 0.25}, []float32{0.1, 0.8, 0.1}},
		{"unequal-lengths", randImage(3, 17, 11), []float32{0.1, 0.2, 0.4, 0.2, 0.1}, []float32{0.3, 0.4, 0.3}},
		{"unequal-lengths-tall", randImage(4, 11, 17), []float32{0.5}, gauss13},
		{"moment-kernel", pattern(23, 12), k1, g},
		{"negative-zero", sparse, neg, neg},
		{"13-tap-over-8x5", randImage(5, 8, 5), gauss13, gauss13},
		{"1-wide", randImage(6, 1, 9), gauss13, []float32{0.25, 0.5, 0.25}},
		{"1-tall", randImage(7, 9, 1), []float32{0.25, 0.5, 0.25}, gauss13},
		{"1x1", randImage(8, 1, 1), g, g},
	} {
		got := SeparableFilter(tc.im, tc.kx, tc.ky)
		want := separableAt(tc.im, tc.kx, tc.ky)
		for i := range want.Pix {
			if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("%s: (%d,%d): got %v want %v", tc.name, i%tc.im.W, i/tc.im.W, got.Pix[i], want.Pix[i])
			}
		}
		PutImage(got)
	}
}
