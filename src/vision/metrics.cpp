#include "vision/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace tangram::vision {

void ApAccumulator::add_frame(
    std::vector<Detection> detections,
    std::vector<video::GroundTruthObject> ground_truth) {
  total_gt_ += ground_truth.size();
  frames_.push_back(Frame{std::move(detections), std::move(ground_truth)});
}

namespace {

// Positive-area boxes sorted by left edge, for finding every box a query box
// can overlap.  IoU is positive only where the intersection is, which needs
// both boxes to have positive area and overlapping x-ranges, so a box whose
// left edge lies outside (query.x - max_width, query.right()) cannot
// overlap the query.  Boxes with zero or negative width or height never
// overlap anything and are left out.
class LeftEdgeIndex {
 public:
  struct Entry {
    common::Rect box;
    std::size_t id;  // the caller's index of the box
  };

  // Replaces the entries with the boxes of `objects`, ids their indices.
  void assign(const std::vector<video::GroundTruthObject>& objects) {
    entries_.clear();
    max_width_ = 0;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const common::Rect& box = objects[i].box;
      if (box.empty()) continue;
      entries_.push_back(Entry{box, i});
      max_width_ = std::max(max_width_, box.width);
    }
    std::stable_sort(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.box.x < b.box.x; });
  }

  // Adds `box` after every entry with the same left edge.
  void insert(const common::Rect& box, std::size_t id) {
    if (box.empty()) return;
    const auto at = std::upper_bound(
        entries_.begin(), entries_.end(), box.x,
        [](int left, const Entry& e) { return left < e.box.x; });
    entries_.insert(at, Entry{box, id});
    max_width_ = std::max(max_width_, box.width);
  }

  // Calls visit(entry) for every entry that can overlap `query`, in left
  // edge order.  Stops early when visit returns true.
  template <typename Visit>
  void for_each_candidate(const common::Rect& query, Visit&& visit) const {
    if (query.empty() || entries_.empty()) return;
    const std::int64_t first =
        static_cast<std::int64_t>(query.x) - max_width_ + 1;
    const std::int64_t end = static_cast<std::int64_t>(query.x) + query.width;
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), first,
        [](const Entry& e, std::int64_t left) { return e.box.x < left; });
    for (; it != entries_.end() && it->box.x < end; ++it)
      if (visit(*it)) return;
  }

 private:
  std::vector<Entry> entries_;
  int max_width_ = 0;
};

}  // namespace

std::vector<char> ApAccumulator::match_all(double iou_threshold) const {
  // Flatten detections with frame index, sort globally by confidence.  The
  // sort is not stable, so equal confidences keep whatever order this call
  // gives them, and that order decides which of two tied detections takes a
  // ground-truth box: keep the input sequence and the call as they are.
  struct Ref {
    std::size_t frame;
    std::size_t det;
    double confidence;
  };
  std::vector<Ref> refs;
  for (std::size_t f = 0; f < frames_.size(); ++f)
    for (std::size_t d = 0; d < frames_[f].detections.size(); ++d)
      refs.push_back(Ref{f, d, frames_[f].detections[d].confidence});
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.confidence > b.confidence;
  });

  // A detection only competes for ground truth of its own frame, so each
  // frame is matched on its own, its detections in global order: bucket the
  // sorted positions by frame, keeping their order.
  std::vector<std::size_t> first(frames_.size() + 1, 0);
  for (const auto& r : refs) ++first[r.frame + 1];
  for (std::size_t f = 0; f < frames_.size(); ++f) first[f + 1] += first[f];
  std::vector<std::size_t> by_frame(refs.size());
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::size_t k = 0; k < refs.size(); ++k)
      by_frame[next[refs[k].frame]++] = k;
  }

  std::vector<char> tp(refs.size(), 0);
  LeftEdgeIndex index;
  std::vector<char> used;
  for (std::size_t f = 0; f < frames_.size(); ++f) {
    const Frame& frame = frames_[f];
    if (first[f] == first[f + 1] || frame.ground_truth.empty()) continue;
    index.assign(frame.ground_truth);
    used.assign(frame.ground_truth.size(), 0);

    for (std::size_t i = first[f]; i < first[f + 1]; ++i) {
      const std::size_t k = by_frame[i];
      const common::Rect& box = frame.detections[refs[k].det].box;
      // The highest-IoU unused box, the lowest index among equals; IoU 0
      // never matches.
      double best_iou = 0.0;
      std::size_t best_gt = 0;
      bool found = false;
      index.for_each_candidate(box, [&](const LeftEdgeIndex::Entry& e) {
        if (used[e.id]) return false;
        const double v = common::iou(box, e.box);
        if (v > best_iou || (found && v == best_iou && e.id < best_gt)) {
          best_iou = v;
          best_gt = e.id;
          found = true;
        }
        return false;
      });
      if (found && best_iou >= iou_threshold) {
        used[best_gt] = 1;
        tp[k] = 1;
      }
    }
  }
  return tp;
}

double ApAccumulator::average_precision(double iou_threshold) const {
  if (total_gt_ == 0) return 0.0;
  const std::vector<char> tp = match_all(iou_threshold);
  if (tp.empty()) return 0.0;

  // Precision/recall curve, then all-points interpolated AP.
  std::vector<double> precision(tp.size());
  std::vector<double> recall(tp.size());
  double cum_tp = 0.0;
  for (std::size_t i = 0; i < tp.size(); ++i) {
    cum_tp += tp[i];
    precision[i] = cum_tp / static_cast<double>(i + 1);
    recall[i] = cum_tp / static_cast<double>(total_gt_);
  }
  // Make precision monotonically non-increasing from the right.
  for (std::size_t i = precision.size() - 1; i > 0; --i)
    precision[i - 1] = std::max(precision[i - 1], precision[i]);

  double ap = 0.0;
  double prev_recall = 0.0;
  for (std::size_t i = 0; i < tp.size(); ++i) {
    ap += (recall[i] - prev_recall) * precision[i];
    prev_recall = recall[i];
  }
  return ap;
}

double ApAccumulator::max_recall(double iou_threshold) const {
  if (total_gt_ == 0) return 0.0;
  const std::vector<char> tp = match_all(iou_threshold);
  const double hits =
      static_cast<double>(std::count(tp.begin(), tp.end(), char{1}));
  return hits / static_cast<double>(total_gt_);
}

double average_precision(
    const std::vector<Detection>& detections,
    const std::vector<video::GroundTruthObject>& ground_truth,
    double iou_threshold) {
  ApAccumulator acc;
  acc.add_frame(detections, ground_truth);
  return acc.average_precision(iou_threshold);
}

std::vector<Detection> non_maximum_suppression(
    std::vector<Detection> detections, double iou_threshold) {
  std::sort(detections.begin(), detections.end(),
            [](const Detection& a, const Detection& b) {
              return a.confidence > b.confidence;
            });
  std::vector<Detection> kept;
  kept.reserve(detections.size());
  if (iou_threshold <= 0.0) {
    // IoU 0 suppresses too: every kept box counts, overlapping or not.
    for (const auto& det : detections) {
      bool suppressed = false;
      for (const auto& keeper : kept) {
        if (common::iou(det.box, keeper.box) >= iou_threshold) {
          suppressed = true;
          break;
        }
      }
      if (!suppressed) kept.push_back(det);
    }
    return kept;
  }
  // Only an overlapping kept box can reach a positive threshold, and whether
  // any one does is all that matters, so the kept boxes that cannot overlap
  // are skipped.
  LeftEdgeIndex index;
  for (const auto& det : detections) {
    bool suppressed = false;
    index.for_each_candidate(det.box, [&](const LeftEdgeIndex::Entry& e) {
      suppressed = common::iou(det.box, e.box) >= iou_threshold;
      return suppressed;
    });
    if (suppressed) continue;
    index.insert(det.box, kept.size());
    kept.push_back(det);
  }
  return kept;
}

}  // namespace tangram::vision
