package imgproc

import (
	"asv/internal/par"
	"fmt"
	"math"
)

// GaussianKernel1D returns a normalized 1-D Gaussian kernel with the given
// standard deviation. The radius is ceil(3*sigma), so the kernel length is
// 2*radius+1.
func GaussianKernel1D(sigma float64) []float32 {
	if sigma <= 0 {
		panic(fmt.Sprintf("imgproc: non-positive sigma %v", sigma))
	}
	r := int(math.Ceil(3 * sigma))
	k := make([]float32, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+r] = float32(v)
		sum += v
	}
	inv := float32(1 / sum)
	for i := range k {
		k[i] *= inv
	}
	return k
}

// SeparableFilter convolves the image with kx horizontally then ky
// vertically, using replicate border handling. Kernel lengths must be odd.
//
// Both passes work on raw Pix row slices and keep one float32 summation
// order per pixel — taps in kernel order, starting from zero — so the result
// is bit-identical to the direct two-pass convolution with Image.At.
func SeparableFilter(im *Image, kx, ky []float32) *Image {
	if len(kx)%2 == 0 || len(ky)%2 == 0 {
		panic("imgproc: separable kernels must have odd length")
	}
	w, h := im.W, im.H
	tmp := GetImage(w, h)
	par.ForChunked(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			filterRow(im.Pix[y*w:][:w], kx, tmp.Pix[y*w:][:w])
		}
	})
	ry := len(ky) / 2
	out := GetImage(w, h)
	par.ForChunked(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			// out starts zeroed; accumulating k[i]·row_i over whole rows
			// in tap order makes, per pixel, the same additions as a
			// per-pixel tap loop.
			dst := out.Pix[y*w:][:w]
			for i, k := range ky {
				yy := min(max(y+i-ry, 0), h-1)
				for x, v := range tmp.Pix[yy*w:][:w] {
					dst[x] += k * v
				}
			}
		}
	})
	PutImage(tmp)
	return out
}

// filterRow correlates src with the odd-length kernel k into dst (both of
// length len(src)), replicating the border samples. Pixels whose window
// leaves the row take a clamped loop; the interior reads an unclamped
// window.
func filterRow(src, k, dst []float32) {
	w, r := len(src), len(k)/2
	border := func(x int) {
		var acc float32
		for i, kv := range k {
			acc += kv * src[min(max(x+i-r, 0), w-1)]
		}
		dst[x] = acc
	}
	if w <= 2*r {
		for x := range dst {
			border(x)
		}
		return
	}
	for x := 0; x < r; x++ {
		border(x)
	}
	inner := dst[r : w-r]
	for x := range inner {
		win := src[x:][:len(k)]
		var acc float32
		for i, kv := range k {
			acc += kv * win[i]
		}
		inner[x] = acc
	}
	for x := w - r; x < w; x++ {
		border(x)
	}
}

// GaussianBlur low-pass filters the image with a separable Gaussian of the
// given standard deviation.
func GaussianBlur(im *Image, sigma float64) *Image {
	k := GaussianKernel1D(sigma)
	return SeparableFilter(im, k, k)
}

// BoxFilter averages over a (2r+1)×(2r+1) window using a running-sum
// implementation, O(1) per pixel.
func BoxFilter(im *Image, r int) *Image {
	if r < 0 {
		panic("imgproc: negative box-filter radius")
	}
	if r == 0 {
		return im.Clone()
	}
	n := 2*r + 1
	k := make([]float32, n)
	inv := 1 / float32(n)
	for i := range k {
		k[i] = inv
	}
	return SeparableFilter(im, k, k)
}

// GradX returns the horizontal central-difference derivative (f(x+1)-f(x-1))/2.
func GradX(im *Image) *Image {
	out := NewImage(im.W, im.H)
	par.ForChunked(im.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < im.W; x++ {
				out.Pix[y*im.W+x] = (im.At(x+1, y) - im.At(x-1, y)) / 2
			}
		}
	})
	return out
}

// GradY returns the vertical central-difference derivative (f(y+1)-f(y-1))/2.
func GradY(im *Image) *Image {
	out := NewImage(im.W, im.H)
	par.ForChunked(im.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < im.W; x++ {
				out.Pix[y*im.W+x] = (im.At(x, y+1) - im.At(x, y-1)) / 2
			}
		}
	})
	return out
}

// Warp resamples the image according to a dense flow field: the output at
// (x, y) is the input sampled at (x+u(x,y), y+v(x,y)). u and v must be the
// same size as the image.
func Warp(im, u, v *Image) *Image {
	mustSameSize(im, u, "Warp(u)")
	mustSameSize(im, v, "Warp(v)")
	out := NewImage(im.W, im.H)
	par.ForChunked(im.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < im.W; x++ {
				out.Pix[y*im.W+x] = im.Bilinear(float32(x)+u.At(x, y), float32(y)+v.At(x, y))
			}
		}
	})
	return out
}
