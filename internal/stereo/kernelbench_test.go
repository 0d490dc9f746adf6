package stereo

import "testing"

func TestMeasureKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness, skipped in -short")
	}
	points := MeasureKernels([][2]int{{32, 24}}, 8, 1)
	if len(points) != 12 { // 6 kernels × 2 variants
		t.Fatalf("got %d points, want 12", len(points))
	}
	for _, p := range points {
		if p.NsPerPixel <= 0 {
			t.Errorf("%s/%s: non-positive ns/pixel %v", p.Kernel, p.Variant, p.NsPerPixel)
		}
		switch p.Variant {
		case "float":
			if p.SpeedupX != 0 {
				t.Errorf("%s/float: speedup set on float row", p.Kernel)
			}
		case "fixed":
			if p.SpeedupX <= 0 {
				t.Errorf("%s/fixed: missing speedup", p.Kernel)
			}
		default:
			t.Errorf("unknown variant %q", p.Variant)
		}
		if p.W != 32 || p.H != 24 || p.MaxDisp != 8 {
			t.Errorf("%s/%s: wrong size metadata %+v", p.Kernel, p.Variant, p)
		}
	}
}
