#include "vision/components.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace tangram::vision {
namespace {

video::Mask make_mask(int w, int h) { return video::Mask(w, h, 0); }

ComponentParams exact_params(int dilate_radius) {
  ComponentParams params;
  params.dilate_radius = dilate_radius;
  params.min_area_px = 1;
  params.merge_gap_px = 0;
  return params;
}

TEST(ExtractBlobs, DilationGrowsSinglePixel) {
  video::Mask m = make_mask(9, 9);
  m.at(4, 4) = 255;
  const auto boxes = extract_blobs(m, exact_params(1));
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0], (common::Rect{3, 3, 3, 3}));
}

TEST(ExtractBlobs, RadiusZeroIsIdentity) {
  video::Mask m = make_mask(5, 5);
  m.at(2, 2) = 255;
  m.at(3, 3) = 7;  // diagonal contact stays separate without dilation
  const auto boxes = extract_blobs(m, exact_params(0));
  ASSERT_EQ(boxes.size(), 2u);
  EXPECT_EQ(boxes[0], (common::Rect{2, 2, 1, 1}));
  EXPECT_EQ(boxes[1], (common::Rect{3, 3, 1, 1}));
}

TEST(ExtractBlobs, DilationClampsAtBorders) {
  video::Mask m = make_mask(5, 5);
  m.at(0, 0) = 255;
  const auto boxes = extract_blobs(m, exact_params(2));
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0], (common::Rect{0, 0, 3, 3}));
  const auto whole = extract_blobs(m, exact_params(1000));
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0], (common::Rect{0, 0, 5, 5}));
}

TEST(ConnectedComponents, SingleBlob) {
  video::Mask m = make_mask(20, 20);
  m.fill_rect({5, 5, 4, 3}, 255);
  const auto comps = connected_components(m, 1);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].box, (common::Rect{5, 5, 4, 3}));
  EXPECT_EQ(comps[0].area_px, 12);
}

TEST(ConnectedComponents, TwoSeparateBlobs) {
  video::Mask m = make_mask(20, 20);
  m.fill_rect({1, 1, 3, 3}, 255);
  m.fill_rect({10, 10, 2, 2}, 255);
  const auto comps = connected_components(m, 1);
  EXPECT_EQ(comps.size(), 2u);
}

TEST(ConnectedComponents, DiagonalPixelsAreSeparate) {
  // 4-connectivity: diagonal touching does not merge.
  video::Mask m = make_mask(10, 10);
  m.at(3, 3) = 255;
  m.at(4, 4) = 255;
  EXPECT_EQ(connected_components(m, 1).size(), 2u);
}

TEST(ConnectedComponents, MinAreaFiltersSpecks) {
  video::Mask m = make_mask(20, 20);
  m.at(2, 2) = 255;                    // 1 px speck
  m.fill_rect({10, 10, 3, 3}, 255);    // 9 px blob
  const auto comps = connected_components(m, 4);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].area_px, 9);
}

TEST(ConnectedComponents, LShapedBlobBoundingBox) {
  video::Mask m = make_mask(20, 20);
  m.fill_rect({2, 2, 6, 2}, 255);
  m.fill_rect({2, 4, 2, 6}, 255);
  const auto comps = connected_components(m, 1);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].box, (common::Rect{2, 2, 6, 8}));
  EXPECT_EQ(comps[0].area_px, 12 + 12);
}

TEST(ExtractBlobs, MergesNearbyBoxes) {
  video::Mask m = make_mask(40, 40);
  m.fill_rect({5, 5, 4, 4}, 255);
  m.fill_rect({12, 5, 4, 4}, 255);  // gap of 3 after dilation by 1 -> 1
  ComponentParams params;
  params.dilate_radius = 1;
  params.min_area_px = 1;
  params.merge_gap_px = 3;
  const auto boxes = extract_blobs(m, params);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_TRUE(boxes[0].contains(common::Rect{5, 5, 4, 4}));
  EXPECT_TRUE(boxes[0].contains(common::Rect{12, 5, 4, 4}));
}

TEST(ExtractBlobs, KeepsDistantBoxesApart) {
  video::Mask m = make_mask(60, 60);
  m.fill_rect({5, 5, 4, 4}, 255);
  m.fill_rect({40, 40, 4, 4}, 255);
  ComponentParams params;
  const auto boxes = extract_blobs(m, params);
  EXPECT_EQ(boxes.size(), 2u);
}

TEST(ExtractBlobs, EmptyMaskYieldsNothing) {
  const auto boxes = extract_blobs(make_mask(30, 30), ComponentParams{});
  EXPECT_TRUE(boxes.empty());
}

// --- reference equivalence ---------------------------------------------------
//
// A verbatim copy of the pixel-level pipeline that the run-based labeller
// replaced: a two-pass separable dilation into fresh masks, a flood fill
// over a label image, and the box merge.  The run-based extract_blobs and
// connected_components must reproduce its output exactly, order included.
namespace reference {

video::Mask dilate(const video::Mask& mask, int radius) {
  if (radius <= 0) return mask;
  const int w = mask.width(), h = mask.height();
  // Two-pass separable dilation (horizontal then vertical).
  video::Mask tmp(w, h, 0), out(w, h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!mask.at(x, y)) continue;
      const int x0 = std::max(0, x - radius), x1 = std::min(w - 1, x + radius);
      for (int xx = x0; xx <= x1; ++xx) tmp.at(xx, y) = 255;
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (!tmp.at(x, y)) continue;
      const int y0 = std::max(0, y - radius), y1 = std::min(h - 1, y + radius);
      for (int yy = y0; yy <= y1; ++yy) out.at(x, yy) = 255;
    }
  }
  return out;
}

std::vector<Component> connected_components(const video::Mask& mask,
                                            int min_area_px) {
  const int w = mask.width(), h = mask.height();
  std::vector<std::int32_t> labels(static_cast<std::size_t>(w) * h, 0);
  std::vector<Component> out;
  std::vector<int> stack;

  auto idx = [w](int x, int y) { return static_cast<std::size_t>(y) * w + x; };

  std::int32_t next_label = 0;
  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      if (!mask.at(sx, sy) || labels[idx(sx, sy)]) continue;
      ++next_label;
      Component comp;
      int minx = sx, miny = sy, maxx = sx, maxy = sy;
      stack.clear();
      stack.push_back(sy * w + sx);
      labels[idx(sx, sy)] = next_label;
      while (!stack.empty()) {
        const int p = stack.back();
        stack.pop_back();
        const int x = p % w, y = p / w;
        ++comp.area_px;
        minx = std::min(minx, x);
        maxx = std::max(maxx, x);
        miny = std::min(miny, y);
        maxy = std::max(maxy, y);
        constexpr int dx[] = {1, -1, 0, 0};
        constexpr int dy[] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          const int nx = x + dx[d], ny = y + dy[d];
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          if (!mask.at(nx, ny) || labels[idx(nx, ny)]) continue;
          labels[idx(nx, ny)] = next_label;
          stack.push_back(ny * w + nx);
        }
      }
      if (comp.area_px >= min_area_px) {
        comp.box = common::Rect::from_corners(minx, miny, maxx + 1, maxy + 1);
        out.push_back(comp);
      }
    }
  }
  return out;
}

// Merge boxes whose expanded versions overlap, until a fixed point.
std::vector<common::Rect> merge_close_boxes(std::vector<common::Rect> boxes,
                                            int gap) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < boxes.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < boxes.size(); ++j) {
        const common::Rect gi{boxes[i].x - gap, boxes[i].y - gap,
                              boxes[i].width + 2 * gap,
                              boxes[i].height + 2 * gap};
        if (common::overlaps(gi, boxes[j])) {
          boxes[i] = common::bounding_union(boxes[i], boxes[j]);
          boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
          break;
        }
      }
    }
  }
  return boxes;
}

std::vector<common::Rect> extract_blobs(const video::Mask& mask,
                                        const ComponentParams& params) {
  const video::Mask dilated = dilate(mask, params.dilate_radius);
  const auto comps = connected_components(dilated, params.min_area_px);
  std::vector<common::Rect> boxes;
  boxes.reserve(comps.size());
  for (const auto& c : comps) boxes.push_back(c.box);
  return merge_close_boxes(std::move(boxes), params.merge_gap_px);
}

}  // namespace reference

bool same_components(const std::vector<Component>& a,
                     const std::vector<Component>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Component& x, const Component& y) {
                      return x.box == y.box && x.area_px == y.area_px;
                    });
}

// A random mask mixing several textures: uniform specks at `density`,
// rectangles (some flush with a border), diagonal staircases whose pixels
// touch only at corners, and arbitrary nonzero values rather than 255.
video::Mask random_mask(common::Rng& rng, int w, int h, double density) {
  video::Mask m(w, h, 0);
  auto nonzero = [&rng] {
    return static_cast<std::uint8_t>(
        rng.bernoulli(0.5) ? 255 : rng.uniform_int(1, 254));
  };
  for (std::size_t p = 0; p < m.pixel_count(); ++p)
    if (rng.bernoulli(density)) m.data()[p] = nonzero();
  const int rects = rng.uniform_int(0, 4);
  for (int i = 0; i < rects; ++i) {
    common::Rect r{rng.uniform_int(0, w - 1), rng.uniform_int(0, h - 1),
                   rng.uniform_int(1, std::max(1, w / 3)),
                   rng.uniform_int(1, std::max(1, h / 3))};
    switch (rng.uniform_int(0, 4)) {
      case 0: r.x = 0; break;
      case 1: r.y = 0; break;
      case 2: r.x = w - r.width; break;
      case 3: r.y = h - r.height; break;
      default: break;
    }
    m.fill_rect(r, nonzero());
  }
  const int stairs = rng.uniform_int(0, 2);
  for (int i = 0; i < stairs; ++i) {
    const int x0 = rng.uniform_int(0, w - 1), y0 = rng.uniform_int(0, h - 1);
    const int dir = rng.bernoulli(0.5) ? 1 : -1;
    for (int s = 0; s < 12; ++s) {
      const int x = x0 + dir * s, y = y0 + s;
      if (x < 0 || x >= w || y >= h) break;
      m.at(x, y) = nonzero();
    }
  }
  return m;
}

TEST(ExtractBlobsReference, MatchesPixelPipelineOnRandomMasks) {
  struct Shape {
    int w, h;
  };
  // Widths off the 8-byte stride, degenerate 1-px masks, and frames wide
  // enough for the eight-byte zero skip to matter.
  constexpr Shape kShapes[] = {{1, 1},   {1, 37},  {29, 1},  {7, 5},
                               {13, 11}, {33, 19}, {64, 9},  {71, 40},
                               {120, 67}};
  constexpr double kDensities[] = {0.001, 0.01, 0.05, 0.2, 0.6};
  int boxes_seen = 0;
  for (const Shape& shape : kShapes) {
    for (const double density : kDensities) {
      for (int trial = 0; trial < 3; ++trial) {
        common::Rng rng(static_cast<std::uint64_t>(
            shape.w * 7919 + shape.h * 131 + trial),
                        static_cast<std::uint64_t>(density * 1000));
        const video::Mask m = random_mask(rng, shape.w, shape.h, density);
        const int half = (std::max(shape.w, shape.h) + 1) / 2;
        for (const int radius : {0, 1, 2, 3, half}) {
          ComponentParams params;
          params.dilate_radius = radius;
          params.min_area_px = rng.uniform_int(1, 8);
          params.merge_gap_px = rng.uniform_int(0, 4);
          const auto got = extract_blobs(m, params);
          const auto want = reference::extract_blobs(m, params);
          ASSERT_EQ(got, want) << shape.w << "x" << shape.h
                               << " density=" << density << " trial=" << trial
                               << " radius=" << radius;
          boxes_seen += static_cast<int>(want.size());
        }
        const int min_area = rng.uniform_int(1, 8);
        ASSERT_TRUE(same_components(connected_components(m, min_area),
                                    reference::connected_components(
                                        m, min_area)))
            << shape.w << "x" << shape.h << " density=" << density
            << " trial=" << trial << " min_area=" << min_area;
      }
    }
  }
  EXPECT_GT(boxes_seen, 1000);
}

}  // namespace
}  // namespace tangram::vision
