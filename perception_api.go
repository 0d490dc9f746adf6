package asv

import (
	"asv/internal/perception"
	"asv/internal/stereo"
)

// 3D perception: the calibration model and the disparity → metric depth →
// point-cloud reprojection engine that turn the pipeline's disparity maps
// into deployable outputs (DESIGN.md §11).

// Calibration is a stereo rig's pinhole intrinsics, per-camera rotational
// misalignment (roll/pitch/yaw, radians), and baseline in metres.
type Calibration = perception.Calibration

// PointCloud is a reprojected disparity map: one point per valid pixel in
// the left camera frame, plus the source grid dimensions.
type PointCloud = perception.Cloud

// DefaultCalibration returns DefaultIntrinsics plus a 0.12 m baseline and
// zero misalignment (an already-rectified rig).
func DefaultCalibration(w, h int) *Calibration { return perception.DefaultCalibration(w, h) }

// ParseCalibration decodes and validates a calibration JSON document.
func ParseCalibration(data []byte) (*Calibration, error) { return perception.ParseCalibration(data) }

// DepthFromDisparity triangulates a disparity map into metric depth
// (Z = fx·B/d); invalid disparities map to 0.
func DepthFromDisparity(disp *Image, c *Calibration) *Image {
	return perception.DepthMap(disp, c)
}

// ReprojectCloud lifts a disparity map into a point cloud, sampling point
// intensity from the left image (nil intensity = all zeros).
func ReprojectCloud(disp, intensity *Image, c *Calibration) *PointCloud {
	return perception.Reproject(disp, intensity, c)
}

// DisparityErrorRate is the percentage of ground-truth-valid pixels whose
// disparity error exceeds threshold px (bad-N in MiddEval3 terms).
func DisparityErrorRate(est, gt *Image, threshold float64) float64 {
	return stereo.ErrorRate(est, gt, threshold)
}
