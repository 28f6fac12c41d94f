// Property tests for the size-indexed FreeRectIndex.
//
// The short-side-bucketed BSSF query must be indistinguishable from the
// historical reference: a linear scan over canvases in open order and free
// lists in insertion order keeping the first strict minimum of
// min(wc - wi, hc - hi).  The reference is re-implemented here against the
// index's own exposed free lists, so every place() is cross-checked — the
// chosen canvas AND position — under randomized workloads with rollbacks
// (the invoker's tentative-admit pattern) and clear().

#include "core/free_rect_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace tangram::core {
namespace {

// The pre-index linear scan (verbatim semantics): first strict minimum over
// (canvas open order, free-list insertion order).
struct RefChoice {
  int canvas = -1;
  std::size_t rect = 0;
  common::Point position;
};

RefChoice reference_bssf(const FreeRectIndex& index, common::Size item) {
  RefChoice best;
  int best_short_side = std::numeric_limits<int>::max();
  for (int c = 0; c < index.canvas_count(); ++c) {
    const auto& rects = index.free_rects(c);
    for (std::size_t f = 0; f < rects.size(); ++f) {
      const common::Rect& fr = rects[f];
      if (fr.width < item.width || fr.height < item.height) continue;
      const int short_side =
          std::min(fr.width - item.width, fr.height - item.height);
      if (short_side < best_short_side) {
        best_short_side = short_side;
        best.canvas = c;
        best.rect = f;
        best.position = common::Point{fr.x, fr.y};
      }
    }
  }
  return best;
}

common::Size random_item(common::Rng& rng, common::Size canvas) {
  return {rng.uniform_int(1, canvas.width),
          rng.uniform_int(1, canvas.height)};
}

TEST(FreeRectIndex, IndexedBssfMatchesLinearReference) {
  const common::Size canvases[] = {{1024, 1024}, {640, 480}, {333, 777}};
  for (const common::Size canvas : canvases) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      common::Rng rng(seed, 57);
      FreeRectIndex index(canvas);
      for (int step = 0; step < 600; ++step) {
        // Bias toward small items so free lists grow deep.
        common::Size item = rng.bernoulli(0.8)
                                ? common::Size{rng.uniform_int(1, 160),
                                               rng.uniform_int(1, 160)}
                                : random_item(rng, canvas);
        item.width = std::min(item.width, canvas.width);
        item.height = std::min(item.height, canvas.height);

        const RefChoice expected = reference_bssf(index, item);
        const auto placed = index.place(item);
        if (expected.canvas >= 0) {
          ASSERT_EQ(placed.canvas_index, expected.canvas) << "step " << step;
          ASSERT_EQ(placed.position.x, expected.position.x);
          ASSERT_EQ(placed.position.y, expected.position.y);
        } else {
          // Nothing fit: a fresh canvas opens and the item lands at origin.
          ASSERT_EQ(placed.canvas_index, index.canvas_count() - 1);
          ASSERT_EQ(placed.position.x, 0);
          ASSERT_EQ(placed.position.y, 0);
        }
      }
    }
  }
}

TEST(FreeRectIndex, MatchesReferenceAcrossRollbacks) {
  common::Rng rng(11, 59);
  FreeRectIndex index({1024, 1024});
  std::vector<FreeRectIndex::Mark> marks;
  for (int step = 0; step < 2000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.6) {
      const common::Size item{rng.uniform_int(1, 300),
                              rng.uniform_int(1, 300)};
      const RefChoice expected = reference_bssf(index, item);
      const auto placed = index.place(item);
      if (expected.canvas >= 0) {
        ASSERT_EQ(placed.canvas_index, expected.canvas) << "step " << step;
        ASSERT_EQ(placed.position.x, expected.position.x);
        ASSERT_EQ(placed.position.y, expected.position.y);
      }
    } else if (roll < 0.75) {
      marks.push_back(index.mark());
    } else if (roll < 0.9 && !marks.empty()) {
      // Roll back to a random mark; later marks become stale and are dropped.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(marks.size()) - 1));
      index.rollback(marks[pick]);
      marks.resize(pick + 1);
    } else if (roll < 0.93) {
      index.clear();
      marks.clear();
    }
    // The tentative-admit pattern: probe + rollback must leave the store
    // answering queries exactly as before.
    const common::Size probe{rng.uniform_int(1, 500), rng.uniform_int(1, 500)};
    const RefChoice before = reference_bssf(index, probe);
    const auto mark = index.mark();
    const auto placed = index.place(probe);
    if (before.canvas >= 0) {
      ASSERT_EQ(placed.canvas_index, before.canvas) << "step " << step;
      ASSERT_EQ(placed.position.x, before.position.x);
      ASSERT_EQ(placed.position.y, before.position.y);
    }
    index.rollback(mark);
    const RefChoice after = reference_bssf(index, probe);
    ASSERT_EQ(after.canvas, before.canvas) << "step " << step;
    ASSERT_EQ(after.rect, before.rect);
  }
}

// clear() empties only the buckets whose bits are set.  An index cleared
// after dense sessions (many canvases, free rects in most buckets, partial
// rollbacks) must then place exactly like a freshly constructed one.
TEST(FreeRectIndex, ClearedIndexPlacesLikeFreshOne) {
  const common::Size canvas{333, 777};
  common::Rng rng(23, 61);
  FreeRectIndex reused(canvas);
  for (int session = 0; session < 8; ++session) {
    for (int step = 0; step < 400; ++step) {
      const auto mark = reused.mark();
      (void)reused.place(random_item(rng, canvas));
      (void)reused.place({rng.uniform_int(1, 40), rng.uniform_int(1, 40)});
      if (rng.bernoulli(0.2)) reused.rollback(mark);
    }
    ASSERT_GT(reused.free_rect_count(), 0u);
    reused.clear();
    ASSERT_EQ(reused.free_rect_count(), 0u);
    ASSERT_EQ(reused.canvas_count(), 0);

    FreeRectIndex fresh(canvas);
    common::Rng items(static_cast<std::uint64_t>(session), 67);
    for (int step = 0; step < 300; ++step) {
      const common::Size item = items.bernoulli(0.7)
                                    ? common::Size{items.uniform_int(1, 90),
                                                   items.uniform_int(1, 90)}
                                    : random_item(items, canvas);
      const auto want = fresh.place(item);
      const auto got = reused.place(item);
      ASSERT_EQ(got.canvas_index, want.canvas_index)
          << "session " << session << " step " << step;
      ASSERT_EQ(got.position.x, want.position.x);
      ASSERT_EQ(got.position.y, want.position.y);
      ASSERT_EQ(reused.free_rect_count(), fresh.free_rect_count());
    }
    reused.clear();
  }
}

TEST(FreeRectIndex, FreeRectCountTracksStore) {
  FreeRectIndex index({1024, 1024});
  EXPECT_EQ(index.free_rect_count(), 0u);
  const auto mark = index.mark();
  index.place({100, 100});
  std::size_t total = 0;
  for (int c = 0; c < index.canvas_count(); ++c)
    total += index.free_rects(c).size();
  EXPECT_EQ(index.free_rect_count(), total);
  index.rollback(mark);
  EXPECT_EQ(index.free_rect_count(), 0u);
  EXPECT_EQ(index.canvas_count(), 0);
}

}  // namespace
}  // namespace tangram::core
