#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "vision/detector.h"
#include "vision/metrics.h"

namespace tangram::vision {
namespace {

using video::GroundTruthObject;

// --- AP evaluator ----------------------------------------------------------

TEST(Ap, PerfectDetectionsScoreOne) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}, {1, {200, 0, 40, 90}}};
  std::vector<Detection> dets{{{0, 0, 50, 100}, 0.9, 0},
                              {{200, 0, 40, 90}, 0.8, 1}};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 1.0);
}

TEST(Ap, NoDetectionsScoreZero) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}};
  EXPECT_DOUBLE_EQ(average_precision({}, gt), 0.0);
}

TEST(Ap, AllFalsePositivesScoreZero) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}};
  std::vector<Detection> dets{{{500, 500, 50, 100}, 0.9, -1}};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 0.0);
}

TEST(Ap, HalfRecallPerfectPrecision) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}},
                                    {1, {200, 0, 50, 100}}};
  std::vector<Detection> dets{{{0, 0, 50, 100}, 0.9, 0}};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 0.5);
}

TEST(Ap, LowConfidenceFalsePositiveBarelyHurts) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}};
  std::vector<Detection> dets{{{0, 0, 50, 100}, 0.9, 0},
                              {{500, 500, 50, 100}, 0.1, -1}};
  // FP ranks below the TP: precision at full recall is still 1.
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 1.0);
}

TEST(Ap, HighConfidenceFalsePositiveHurts) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}};
  std::vector<Detection> dets{{{0, 0, 50, 100}, 0.5, 0},
                              {{500, 500, 50, 100}, 0.9, -1}};
  // Precision at recall 1 is 1/2.
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 0.5);
}

TEST(Ap, IouThresholdGates) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 100, 100}}};
  // Shifted box: IoU = (50x100)/(150x100) = 1/3.
  std::vector<Detection> dets{{{50, 0, 100, 100}, 0.9, 0}};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 0.3), 1.0);
}

TEST(Ap, DuplicateDetectionsCountOnce) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 100, 100}}};
  std::vector<Detection> dets{{{0, 0, 100, 100}, 0.9, 0},
                              {{2, 2, 100, 100}, 0.8, 0}};
  // Second detection cannot re-match the used GT: it is an FP at rank 2,
  // so precision at recall 1 is 1 but the curve includes the FP after.
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 1.0);
}

TEST(Ap, MultiFrameAccumulation) {
  ApAccumulator acc;
  acc.add_frame({{{0, 0, 50, 50}, 0.9, 0}}, {{0, {0, 0, 50, 50}}});
  acc.add_frame({}, {{1, {0, 0, 50, 50}}});  // missed object in frame 2
  EXPECT_EQ(acc.frames(), 2u);
  EXPECT_EQ(acc.total_ground_truth(), 2u);
  EXPECT_DOUBLE_EQ(acc.average_precision(), 0.5);
  EXPECT_DOUBLE_EQ(acc.max_recall(), 0.5);
}

TEST(Ap, MatchingIsPerFrame) {
  ApAccumulator acc;
  // A detection in frame 1 must not match ground truth in frame 2.
  acc.add_frame({{{0, 0, 50, 50}, 0.9, -1}}, {});
  acc.add_frame({}, {{0, {0, 0, 50, 50}}});
  EXPECT_DOUBLE_EQ(acc.average_precision(), 0.0);
}

// --- non-maximum suppression ------------------------------------------------

TEST(Nms, KeepsHighestConfidenceOfDuplicates) {
  std::vector<Detection> dets{{{0, 0, 100, 100}, 0.6, 0},
                              {{5, 5, 100, 100}, 0.9, 0},
                              {{2, 0, 100, 100}, 0.7, 0}};
  const auto kept = non_maximum_suppression(dets, 0.5);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].confidence, 0.9);
}

TEST(Nms, KeepsDisjointBoxes) {
  std::vector<Detection> dets{{{0, 0, 50, 50}, 0.9, 0},
                              {{100, 100, 50, 50}, 0.8, 1},
                              {{300, 0, 50, 50}, 0.7, 2}};
  EXPECT_EQ(non_maximum_suppression(dets, 0.5).size(), 3u);
}

TEST(Nms, ThresholdControlsAggressiveness) {
  // Two boxes with IoU = 25/175 ~ 0.143.
  std::vector<Detection> dets{{{0, 0, 10, 10}, 0.9, 0},
                              {{5, 5, 10, 10}, 0.8, 1}};
  EXPECT_EQ(non_maximum_suppression(dets, 0.5).size(), 2u);
  EXPECT_EQ(non_maximum_suppression(dets, 0.1).size(), 1u);
}

TEST(Nms, EmptyInputOk) {
  EXPECT_TRUE(non_maximum_suppression({}, 0.5).empty());
}

TEST(Nms, OutputSortedByConfidence) {
  std::vector<Detection> dets{{{0, 0, 50, 50}, 0.3, 0},
                              {{100, 100, 50, 50}, 0.9, 1},
                              {{300, 0, 50, 50}, 0.6, 2}};
  const auto kept = non_maximum_suppression(dets, 0.5);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_GE(kept[0].confidence, kept[1].confidence);
  EXPECT_GE(kept[1].confidence, kept[2].confidence);
}

// --- reference matcher and NMS ---------------------------------------------

// ApAccumulator's matcher, AP and recall before spatial pruning, verbatim
// (frames as (detections, ground truth) pairs).
struct RefFrame {
  std::vector<Detection> detections;
  std::vector<GroundTruthObject> ground_truth;
};

std::vector<char> reference_match_all(const std::vector<RefFrame>& frames_,
                                      double iou_threshold) {
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

  std::vector<std::vector<char>> used(frames_.size());
  for (std::size_t f = 0; f < frames_.size(); ++f)
    used[f].assign(frames_[f].ground_truth.size(), 0);

  std::vector<char> tp;
  tp.reserve(refs.size());
  for (const auto& r : refs) {
    const RefFrame& frame = frames_[r.frame];
    const Detection& det = frame.detections[r.det];
    double best_iou = 0.0;
    std::size_t best_gt = 0;
    bool found = false;
    for (std::size_t g = 0; g < frame.ground_truth.size(); ++g) {
      if (used[r.frame][g]) continue;
      const double v = common::iou(det.box, frame.ground_truth[g].box);
      if (v > best_iou) {
        best_iou = v;
        best_gt = g;
        found = true;
      }
    }
    if (found && best_iou >= iou_threshold) {
      used[r.frame][best_gt] = 1;
      tp.push_back(1);
    } else {
      tp.push_back(0);
    }
  }
  return tp;
}

std::size_t reference_total_gt(const std::vector<RefFrame>& frames) {
  std::size_t total = 0;
  for (const auto& f : frames) total += f.ground_truth.size();
  return total;
}

double reference_ap(const std::vector<RefFrame>& frames,
                    double iou_threshold) {
  const std::size_t total_gt_ = reference_total_gt(frames);
  if (total_gt_ == 0) return 0.0;
  const std::vector<char> tp = reference_match_all(frames, iou_threshold);
  if (tp.empty()) return 0.0;

  std::vector<double> precision(tp.size());
  std::vector<double> recall(tp.size());
  double cum_tp = 0.0;
  for (std::size_t i = 0; i < tp.size(); ++i) {
    cum_tp += tp[i];
    precision[i] = cum_tp / static_cast<double>(i + 1);
    recall[i] = cum_tp / static_cast<double>(total_gt_);
  }
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

double reference_max_recall(const std::vector<RefFrame>& frames,
                            double iou_threshold) {
  const std::size_t total_gt_ = reference_total_gt(frames);
  if (total_gt_ == 0) return 0.0;
  const std::vector<char> tp = reference_match_all(frames, iou_threshold);
  const double hits =
      static_cast<double>(std::count(tp.begin(), tp.end(), char{1}));
  return hits / static_cast<double>(total_gt_);
}

// non_maximum_suppression before spatial pruning, verbatim.
std::vector<Detection> reference_nms(std::vector<Detection> detections,
                                     double iou_threshold) {
  std::sort(detections.begin(), detections.end(),
            [](const Detection& a, const Detection& b) {
              return a.confidence > b.confidence;
            });
  std::vector<Detection> kept;
  kept.reserve(detections.size());
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

// A crowded random frame built to hit every tie and edge case of the
// pruning: confidences from five levels (ties across frames too), exact
// duplicate ground-truth and detection boxes (IoU ties), detections that are
// jittered copies of ground truth, zero-width, zero-height and
// negative-size boxes, and negative coordinates.
RefFrame random_frame(common::Rng& rng) {
  const auto random_box = [&] {
    return common::Rect{rng.uniform_int(-60, 200), rng.uniform_int(-60, 120),
                        rng.uniform_int(-4, 70), rng.uniform_int(-4, 70)};
  };
  RefFrame frame;
  const int gt_count = rng.uniform_int(0, 14);
  for (int g = 0; g < gt_count; ++g) {
    common::Rect box = random_box();
    if (!frame.ground_truth.empty() && rng.bernoulli(0.15))
      box = frame.ground_truth[static_cast<std::size_t>(rng.uniform_int(
                                   0, g - 1))]
                .box;
    if (rng.bernoulli(0.08)) box.width = 0;
    frame.ground_truth.push_back(GroundTruthObject{g, box});
  }
  const int det_count = rng.uniform_int(0, 18);
  for (int d = 0; d < det_count; ++d) {
    common::Rect box = random_box();
    int gt_id = -1;
    if (!frame.ground_truth.empty() && rng.bernoulli(0.55)) {
      const auto& gt = frame.ground_truth[static_cast<std::size_t>(
          rng.uniform_int(0, gt_count - 1))];
      gt_id = gt.id;
      box = gt.box;
      if (rng.bernoulli(0.6))
        box = common::Rect{box.x + rng.uniform_int(-8, 8),
                           box.y + rng.uniform_int(-8, 8),
                           box.width + rng.uniform_int(-8, 8),
                           box.height + rng.uniform_int(-8, 8)};
    } else if (!frame.detections.empty() && rng.bernoulli(0.2)) {
      box = frame.detections.back().box;
    }
    const double confidence =
        rng.bernoulli(0.7) ? 0.2 * rng.uniform_int(1, 5) : rng.uniform();
    frame.detections.push_back(Detection{box, confidence, gt_id});
  }
  return frame;
}

constexpr double kThresholds[] = {-0.5, 0.0, 0.3, 0.5, 0.65, 1.0};

TEST(ApReference, MatchesVerbatimMatcher) {
  common::Rng rng(2024, 7);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<RefFrame> frames(
        static_cast<std::size_t>(rng.uniform_int(1, 12)));
    for (auto& f : frames) f = random_frame(rng);
    ApAccumulator acc;
    for (const auto& f : frames) acc.add_frame(f.detections, f.ground_truth);
    for (const double t : kThresholds) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " t " << t);
      ASSERT_EQ(acc.average_precision(t), reference_ap(frames, t));
      ASSERT_EQ(acc.max_recall(t), reference_max_recall(frames, t));
    }
  }
}

TEST(ApReference, EqualIouTieTakesLowestGroundTruthIndex) {
  // The detection overlaps both boxes by the same area; ground truth 0 lies
  // to the right of ground truth 1, so the lowest index is not the leftmost.
  const std::vector<GroundTruthObject> gt{{0, {20, 0, 10, 10}},
                                          {1, {0, 0, 10, 10}}};
  const std::vector<Detection> dets{{{5, 0, 20, 10}, 0.9, -1},
                                    {{0, 0, 10, 10}, 0.8, 1}};
  // If the tie went to index 1, the second detection would find its own
  // box taken: recall 1/2 instead of 1.
  ApAccumulator acc;
  acc.add_frame(dets, gt);
  EXPECT_EQ(acc.max_recall(0.1), 1.0);
  EXPECT_EQ(acc.max_recall(0.1), reference_max_recall({{dets, gt}}, 0.1));
}

TEST(NmsReference, MatchesVerbatimNms) {
  common::Rng rng(4048, 9);
  for (int trial = 0; trial < 2000; ++trial) {
    const RefFrame frame = random_frame(rng);
    for (const double t : kThresholds) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " t " << t);
      const auto got = non_maximum_suppression(frame.detections, t);
      const auto want = reference_nms(frame.detections, t);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].box, want[i].box);
        ASSERT_EQ(got[i].confidence, want[i].confidence);
        ASSERT_EQ(got[i].gt_id, want[i].gt_id);
      }
    }
  }
}

// --- detector model --------------------------------------------------------

TEST(Detector, ProbabilityMonotoneInObjectSize) {
  DetectorModel model(yolov8x_4k_profile(), common::Rng(1, 2));
  double prev = 0.0;
  for (const double d : {5.0, 10.0, 20.0, 40.0, 80.0, 160.0}) {
    const double p = model.detection_probability(d, 1.0, 2160.0);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_GT(prev, 0.8);  // large objects nearly always found
}

TEST(Detector, DownsizingReducesProbability) {
  DetectorModel model(yolov8x_4k_profile(), common::Rng(1, 2));
  const double native = model.detection_probability(40.0, 1.0, 2160.0);
  const double half = model.detection_probability(40.0, 0.5, 2160.0);
  const double fifth = model.detection_probability(40.0, 0.22, 2160.0);
  EXPECT_GT(native, half);
  EXPECT_GT(half, fifth);
}

TEST(Detector, TrainingResolutionMismatchPenalized) {
  DetectorProfile p = yolov8x_480p_profile();
  DetectorModel model(p, common::Rng(1, 2));
  // Same effective object size, presented at 480 vs 2160 input resolution.
  const double at_train = model.detection_probability(60.0, 480.0 / 2160.0,
                                                      2160.0);
  const double at_native = model.detection_probability(
      60.0 * 480.0 / 2160.0, 1.0, 2160.0);
  // The native-resolution presentation is farther from the training domain.
  EXPECT_GT(at_train, at_native * 0.9);
}

TEST(Detector, ZeroSizeNeverDetected) {
  DetectorModel model(yolov8x_4k_profile(), common::Rng(1, 2));
  EXPECT_DOUBLE_EQ(model.detection_probability(0.0, 1.0, 2160.0), 0.0);
  EXPECT_DOUBLE_EQ(model.detection_probability(10.0, 0.0, 2160.0), 0.0);
}

TEST(Detector, DetectRegionOnlySeesVisibleObjects) {
  DetectorProfile profile;
  profile.fp_per_mpixel = 0.0;
  DetectorModel model(profile, common::Rng(3, 5));
  std::vector<GroundTruthObject> objects{{0, {100, 100, 200, 300}},
                                         {1, {3000, 1800, 200, 300}}};
  const common::Rect region{0, 0, 1000, 1000};
  int found_outside = 0;
  for (int i = 0; i < 50; ++i) {
    for (const auto& det : model.detect_region(objects, region, 1.0, 2160.0))
      if (det.gt_id == 1) ++found_outside;
  }
  EXPECT_EQ(found_outside, 0);
}

TEST(Detector, LargeVisibleObjectUsuallyDetected) {
  DetectorProfile profile;
  profile.fp_per_mpixel = 0.0;
  DetectorModel model(profile, common::Rng(3, 5));
  std::vector<GroundTruthObject> objects{{0, {100, 100, 200, 300}}};
  const common::Rect region{0, 0, 1000, 1000};
  int found = 0;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i)
    for (const auto& det : model.detect_region(objects, region, 1.0, 2160.0))
      if (det.gt_id == 0) ++found;
  EXPECT_GT(found, kTrials * 3 / 4);
}

TEST(Detector, TruncatedObjectDetectedLessOften) {
  DetectorProfile profile;
  profile.fp_per_mpixel = 0.0;
  std::vector<GroundTruthObject> objects{{0, {900, 100, 200, 300}}};
  const common::Rect full{0, 0, 2000, 1000};
  const common::Rect cutting{0, 0, 950, 1000};  // sees 25% of the width

  int found_full = 0, found_cut = 0;
  constexpr int kTrials = 300;
  DetectorModel m1(profile, common::Rng(7, 5));
  DetectorModel m2(profile, common::Rng(7, 5));
  for (int i = 0; i < kTrials; ++i) {
    for (const auto& det : m1.detect_region(objects, full, 1.0, 2160.0))
      if (det.gt_id == 0) ++found_full;
    for (const auto& det : m2.detect_region(objects, cutting, 1.0, 2160.0))
      if (det.gt_id == 0) ++found_cut;
  }
  EXPECT_LT(found_cut, found_full / 2);
}

TEST(Detector, FalsePositivesScaleWithArea) {
  DetectorProfile profile;
  profile.fp_per_mpixel = 5.0;
  DetectorModel model(profile, common::Rng(9, 5));
  int fp_small = 0, fp_large = 0;
  for (int i = 0; i < 100; ++i) {
    for (const auto& det :
         model.detect_region({}, {0, 0, 500, 500}, 1.0, 2160.0))
      if (det.gt_id < 0) ++fp_small;
    for (const auto& det :
         model.detect_region({}, {0, 0, 2000, 2000}, 1.0, 2160.0))
      if (det.gt_id < 0) ++fp_large;
  }
  EXPECT_GT(fp_large, fp_small * 4);
}

TEST(Detector, MergeKeepsBestPerObject) {
  std::vector<Detection> dets{{{0, 0, 10, 10}, 0.5, 3},
                              {{1, 1, 10, 10}, 0.9, 3},
                              {{5, 5, 10, 10}, 0.4, -1}};
  const auto merged = DetectorModel::merge_detections(dets);
  int for_gt3 = 0;
  double conf = 0;
  int fps = 0;
  for (const auto& d : merged) {
    if (d.gt_id == 3) {
      ++for_gt3;
      conf = d.confidence;
    } else {
      ++fps;
    }
  }
  EXPECT_EQ(for_gt3, 1);
  EXPECT_DOUBLE_EQ(conf, 0.9);
  EXPECT_EQ(fps, 1);
}

}  // namespace
}  // namespace tangram::vision
