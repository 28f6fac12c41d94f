// Object-detection evaluation: greedy IoU matching and average precision
// (AP@0.5, the paper's metric).  Implements the standard all-points
// interpolated AP over a multi-frame dataset.

#pragma once

#include <cstddef>
#include <vector>

#include "common/geometry.h"
#include "video/scene.h"

namespace tangram::vision {

struct Detection {
  common::Rect box;
  double confidence = 0.0;
  int gt_id = -1;  // ground-truth object id, or -1 for a false positive
};

// Accumulates (detections, ground truth) pairs frame by frame, then computes
// AP at a chosen IoU threshold.  Matching is the standard protocol: sort all
// detections by descending confidence; each matches the highest-IoU unused
// ground-truth box in its own frame (the lowest index among equal IoUs) if
// that IoU is positive and >= threshold.  Only ground truth whose x-range
// overlaps the detection's is examined, which is exact: a box outside it
// has IoU 0.
class ApAccumulator {
 public:
  void add_frame(std::vector<Detection> detections,
                 std::vector<video::GroundTruthObject> ground_truth);

  [[nodiscard]] std::size_t frames() const { return frames_.size(); }
  [[nodiscard]] std::size_t total_ground_truth() const { return total_gt_; }

  // AP at the given IoU threshold (default 0.5).  Returns 0 when no ground
  // truth has been added.
  [[nodiscard]] double average_precision(double iou_threshold = 0.5) const;

  // Recall at the operating point including all detections.
  [[nodiscard]] double max_recall(double iou_threshold = 0.5) const;

 private:
  struct Frame {
    std::vector<Detection> detections;
    std::vector<video::GroundTruthObject> ground_truth;
  };
  // (tp flags sorted by confidence, #gt) for the given threshold.
  [[nodiscard]] std::vector<char> match_all(double iou_threshold) const;

  std::vector<Frame> frames_;
  std::size_t total_gt_ = 0;
};

// Single-shot helper for one frame.
[[nodiscard]] double average_precision(
    const std::vector<Detection>& detections,
    const std::vector<video::GroundTruthObject>& ground_truth,
    double iou_threshold = 0.5);

// Greedy non-maximum suppression: detections sorted by descending
// confidence; a detection is dropped if it overlaps an already-kept one
// with IoU >= threshold.  For a positive threshold only the kept boxes
// whose x-range overlaps the detection's are examined (the others have
// IoU 0); a threshold <= 0 compares against every kept box.  This is how
// a real deployment removes duplicate boxes when overlapping patches see
// the same object twice (the inverse-mapping path in
// experiments/accuracy.cpp uses it).
// The default threshold is tuned for crowded scenes: duplicates of the same
// object (seen by two overlapping patches) overlap at IoU ~0.7+, while
// distinct adjacent pedestrians rarely exceed 0.5.
[[nodiscard]] std::vector<Detection> non_maximum_suppression(
    std::vector<Detection> detections, double iou_threshold = 0.65);

}  // namespace tangram::vision
