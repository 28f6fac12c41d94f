#include "common/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tangram::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123, 5), b(123, 5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(123, 5), b(124, 5);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u32() == b.next_u32()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, DifferentStreamsDiverge) {
  Rng a(123, 1), b(123, 2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u32() == b.next_u32()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const int v = rng.uniform_int(2, 7);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 7);
    ++counts[static_cast<std::size_t>(v - 2)];
  }
  // Roughly uniform: each bucket within 10% of expectation.
  for (const int c : counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, PoissonMean) {
  Rng rng(23);
  double sum = 0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(29);
  std::vector<double> values;
  constexpr int n = 20001;
  values.reserve(n);
  for (int i = 0; i < n; ++i) values.push_back(rng.lognormal(0.0, 0.5));
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  EXPECT_NEAR(values[n / 2], 1.0, 0.05);  // median of lognormal(0, s) is 1
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31, 1);
  Rng child = parent.fork(42);
  Rng parent2(31, 1);
  Rng child2 = parent2.fork(42);
  // Same derivation -> same stream.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next_u32(), child2.next_u32());
  // Different salt -> different stream.
  Rng parent3(31, 1);
  Rng other = parent3.fork(43);
  Rng child3 = Rng(31, 1).fork(42);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (other.next_u32() == child3.next_u32()) ++equal;
  EXPECT_LT(equal, 5);
}

// fill_u32 on `tier` (the default dispatch when empty) must write exactly
// the next n next_u32() outputs, nothing past them, and leave the generator
// where n calls would: the lane path (whole blocks of 8 or 16) and the tail
// both count.  The writes start one word into the buffer so the block
// stores are unaligned.
void expect_fill_matches_sequential_draws(const std::vector<std::size_t>& sizes,
                                          std::optional<SimdTier> tier) {
  constexpr std::uint32_t kGuard = 0xDEADBEEF;
  const std::uint64_t seeds[] = {0, 1, 99, 0x853c49e6748fea9bULL,
                                 0xFFFFFFFFFFFFFFFFULL};
  const std::uint64_t streams[] = {0, 1, 11, 0x7FFFFFFFFFFFFFFFULL};
  for (const std::uint64_t seed : seeds)
    for (const std::uint64_t stream : streams)
      for (const std::size_t n : sizes) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " stream "
                                        << stream << " n " << n);
        Rng block(seed, stream), serial(seed, stream);
        // Start mid-stream, so the lanes do not begin at a fresh seed.
        for (int i = 0; i < 3; ++i)
          ASSERT_EQ(block.next_u32(), serial.next_u32());
        std::vector<std::uint32_t> buffer(n + 2, kGuard);
        if (tier)
          block.fill_u32(buffer.data() + 1, n, *tier);
        else
          block.fill_u32(buffer.data() + 1, n);
        ASSERT_EQ(buffer.front(), kGuard);
        ASSERT_EQ(buffer.back(), kGuard);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(buffer[i + 1], serial.next_u32()) << "draw " << i;
        ASSERT_EQ(block.next_u32(), serial.next_u32()) << "draw after fill";
        ASSERT_EQ(block.next_u64(), serial.next_u64());
      }
}

TEST(Rng, FillU32MatchesSequentialDraws) {
  const std::vector<std::size_t> sizes = {0, 1, 7, 8, 9, 15, 16, 17, 129603};
  expect_fill_matches_sequential_draws(sizes, std::nullopt);
  expect_fill_matches_sequential_draws(sizes, SimdTier::kScalar);
  if (simd_tier_supported(SimdTier::kAvx2))
    expect_fill_matches_sequential_draws(sizes, SimdTier::kAvx2);
}

TEST(Rng, FillU32Avx512MatchesSequentialDraws) {
  if (!simd_tier_supported(SimdTier::kAvx512))
    GTEST_SKIP() << "this CPU or build has no AVX-512 tier";
  expect_fill_matches_sequential_draws(
      {0, 1, 8, 15, 16, 17, 31, 32, 33, 129600, 129603}, SimdTier::kAvx512);
}

TEST(Rng, FillU32RejectsUnsupportedTier) {
  if (simd_tier_supported(SimdTier::kAvx512))
    GTEST_SKIP() << "every tier is supported here";
  Rng rng(1, 2);
  std::uint32_t word = 0;
  EXPECT_THROW(rng.fill_u32(&word, 1, SimdTier::kAvx512),
               std::invalid_argument);
}

TEST(Rng, ConcurrentSameSeedStreamsIdentical) {
  // Rng is a 16-byte value type with no static or global state, so two
  // identically-seeded generators advanced on racing threads must emit the
  // same sequence — the property that lets ParallelSweepRunner run
  // same-seed sims concurrently with bit-identical results.  Run under
  // ThreadSanitizer in CI (any hidden shared state would race here).
  constexpr int kDraws = 100000;
  std::vector<std::uint64_t> left(kDraws), right(kDraws);
  const auto fill = [](std::vector<std::uint64_t>& out) {
    Rng rng(2024, 17);
    for (auto& v : out) v = rng.next_u64();
  };
  std::thread a(fill, std::ref(left));
  std::thread b(fill, std::ref(right));
  a.join();
  b.join();
  EXPECT_EQ(left, right);
}

}  // namespace
}  // namespace tangram::common
