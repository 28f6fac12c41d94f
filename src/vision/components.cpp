#include "vision/components.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

namespace tangram::vision {

namespace {

// Half-open column interval [x0, x1) of foreground pixels in one row.
struct Run {
  int x0;
  int x1;
};

// Appends the maximal foreground runs of `row` (width `w`), each widened by
// `r` on both sides and clamped to the row; runs that then touch or overlap
// are merged, so the appended runs stay sorted, disjoint and maximal.
void scan_row(const std::uint8_t* row, int w, int r, std::vector<Run>& out) {
  const std::size_t first = out.size();
  int x = 0;
  while (x < w) {
    // Foreground is sparse: skip background eight bytes at a time.
    for (std::uint64_t word = 0; x + 8 <= w; x += 8) {
      std::memcpy(&word, row + x, sizeof word);
      if (word != 0) break;
    }
    while (x < w && row[x] == 0) ++x;
    if (x == w) break;
    const int x0 = x;
    while (x < w && row[x] != 0) ++x;
    const int lo = std::max(0, x0 - r), hi = std::min(w, x + r);
    if (out.size() > first && lo <= out.back().x1) {
      out.back().x1 = hi;
    } else {
      out.push_back({lo, hi});
    }
  }
}

// out = a ∪ b, for sorted, disjoint, maximal run lists; the result is one
// too.
void unite_runs(const std::vector<Run>& a, const Run* b, const Run* b_end,
                std::vector<Run>& out) {
  out.clear();
  auto ai = a.begin();
  while (ai != a.end() || b != b_end) {
    const Run next =
        (b == b_end || (ai != a.end() && ai->x0 <= b->x0)) ? *ai++ : *b++;
    if (!out.empty() && next.x0 <= out.back().x1) {
      out.back().x1 = std::max(out.back().x1, next.x1);
    } else {
      out.push_back(next);
    }
  }
}

// Union-find over run indices; every root is the lowest index in its set.
std::size_t find_root(std::vector<std::size_t>& parent, std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];  // path halving
    i = parent[i];
  }
  return i;
}

void join(std::vector<std::size_t>& parent, std::size_t a, std::size_t b) {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a < b) {
    parent[b] = a;
  } else if (b < a) {
    parent[a] = b;
  }
}

// 4-connected components of `mask` dilated by a (2r+1)x(2r+1) square, in the
// raster order of each component's first pixel.  The dilated mask is never
// materialised: each dilated row is the union of the horizontally widened
// runs of rows y-r..y+r, and runs on adjacent rows are joined when their
// columns overlap.  Runs are numbered in raster order and each set's root is
// its lowest run index, i.e. the run holding the component's first pixel.
std::vector<Component> label_runs(const video::Mask& mask, int radius,
                                  int min_area_px) {
  const int w = mask.width(), h = mask.height();
  // A radius past the image's extent dilates no further.
  const int r = std::clamp(radius, 0, std::max(w, h));
  std::vector<Component> out;
  if (w <= 0 || h <= 0) return out;
  const auto rows = static_cast<std::size_t>(h);

  // Horizontally dilated runs of every source row.
  std::vector<Run> wide;
  std::vector<std::size_t> wide_begin(rows + 1, 0);
  for (std::size_t y = 0; y < rows; ++y) {
    scan_row(mask.data() + y * static_cast<std::size_t>(w), w, r, wide);
    wide_begin[y + 1] = wide.size();
  }
  if (wide.empty()) return out;

  // Fully dilated runs, labelled row by row against the row above.
  std::vector<Run> runs;
  std::vector<int> run_row;
  std::vector<std::size_t> parent;
  std::vector<Run> acc, tmp;
  std::size_t prev_begin = 0, prev_end = 0;
  for (int y = 0; y < h; ++y) {
    acc.clear();
    const auto y_lo = static_cast<std::size_t>(std::max(0, y - r));
    const auto y_hi = static_cast<std::size_t>(std::min(h - 1, y + r));
    for (std::size_t yy = y_lo; yy <= y_hi; ++yy) {
      const Run* b = wide.data() + wide_begin[yy];
      const Run* b_end = wide.data() + wide_begin[yy + 1];
      if (b == b_end) continue;
      if (acc.empty()) {
        acc.assign(b, b_end);
      } else {
        unite_runs(acc, b, b_end, tmp);
        acc.swap(tmp);
      }
    }

    const std::size_t cur_begin = runs.size();
    for (const Run& run : acc) {
      parent.push_back(runs.size());
      run_row.push_back(y);
      runs.push_back(run);
    }
    const std::size_t cur_end = runs.size();
    std::size_t j = prev_begin;
    for (std::size_t i = cur_begin; i < cur_end; ++i) {
      while (j < prev_end && runs[j].x1 <= runs[i].x0) ++j;
      for (std::size_t k = j; k < prev_end && runs[k].x0 < runs[i].x1; ++k)
        join(parent, i, k);
    }
    prev_begin = cur_begin;
    prev_end = cur_end;
  }

  // Box and area of each set, accumulated in its root's slot.
  std::vector<Component> sets(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    Component& c = sets[find_root(parent, i)];
    c.box = common::bounding_union(
        c.box, common::Rect::from_corners(run.x0, run_row[i], run.x1,
                                          run_row[i] + 1));
    c.area_px += run.x1 - run.x0;
  }
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (parent[i] == i && sets[i].area_px >= min_area_px)
      out.push_back(sets[i]);
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

}  // namespace

std::vector<Component> connected_components(const video::Mask& mask,
                                            int min_area_px) {
  return label_runs(mask, 0, min_area_px);
}

std::vector<common::Rect> extract_blobs(const video::Mask& mask,
                                        const ComponentParams& params) {
  const auto comps =
      label_runs(mask, params.dilate_radius, params.min_area_px);
  std::vector<common::Rect> boxes;
  boxes.reserve(comps.size());
  for (const auto& c : comps) boxes.push_back(c.box);
  return merge_close_boxes(std::move(boxes), params.merge_gap_px);
}

}  // namespace tangram::vision
