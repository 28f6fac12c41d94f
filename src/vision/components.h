// Foreground-mask post-processing: morphological dilation and connected-
// component labeling, producing RoI bounding boxes from a binary mask.
//
// Both run on the mask's foreground runs (maximal horizontal intervals of
// nonzero pixels) rather than on its pixels: the dilated mask and a label
// image are never built, so the cost follows the foreground, which is a few
// percent of a frame.

#pragma once

#include <vector>

#include "common/geometry.h"
#include "video/image.h"

namespace tangram::vision {

struct ComponentParams {
  int dilate_radius = 1;      // merge fragmented blobs before labeling
  int min_area_px = 4;        // drop specks (analysis-resolution pixels)
  int merge_gap_px = 2;       // merge boxes whose gap is below this
};

// 4-connected component labeling of the nonzero pixels; returns each
// component's bounding box and pixel count, filtered by `min_area_px`, in
// the raster order of each component's first pixel.
struct Component {
  common::Rect box;
  int area_px = 0;
};
[[nodiscard]] std::vector<Component> connected_components(
    const video::Mask& mask, int min_area_px);

// Full pipeline: binary dilation with a (2r+1)x(2r+1) square (r =
// `dilate_radius`, clamped at the borders) -> label -> box merge.  Returned
// boxes are in the mask's (analysis) coordinate space.
[[nodiscard]] std::vector<common::Rect> extract_blobs(const video::Mask& mask,
                                                      const ComponentParams&
                                                          params);

}  // namespace tangram::vision
