// Unit tests for src/base: time formatting, the buffered export writer,
// deterministic RNG, statistics, histograms/CDFs, and table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "src/base/byte_writer.h"
#include "src/base/cost_model.h"
#include "src/base/histogram.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/table.h"
#include "src/base/time.h"

namespace vscale {
namespace {

// --- time ---

TEST(TimeTest, UnitConstructors) {
  EXPECT_EQ(Nanoseconds(7), 7);
  EXPECT_EQ(Microseconds(3), 3'000);
  EXPECT_EQ(Milliseconds(2), 2'000'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
}

TEST(TimeTest, FractionalConstructorsRound) {
  EXPECT_EQ(MicrosecondsF(1.5), 1'500);
  EXPECT_EQ(MillisecondsF(0.25), 250'000);
  EXPECT_EQ(SecondsF(0.001), 1'000'000);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(9)), 9.0);
}

TEST(TimeTest, FormatPicksUnit) {
  EXPECT_EQ(FormatTime(Seconds(2)), "2.000s");
  EXPECT_EQ(FormatTime(Milliseconds(12)), "12.000ms");
  EXPECT_EQ(FormatTime(Microseconds(3)), "3.000us");
  EXPECT_EQ(FormatTime(Nanoseconds(42)), "42ns");
}

TEST(TimeTest, NeverIsLargerThanAnyPracticalTime) {
  EXPECT_GT(kTimeNever, Seconds(1'000'000'000));
}

// --- byte writer ---

TEST(ByteWriterTest, IntsMatchOstream) {
  std::ostringstream got;
  std::ostringstream want;
  {
    ByteWriter w(got);
    for (const int64_t v : {int64_t{0}, int64_t{-1}, int64_t{42}, int64_t{-1234567},
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()}) {
      w.Int(v);
      w.Put(',');
      want << v << ',';
    }
  }
  EXPECT_EQ(got.str(), want.str());
}

TEST(ByteWriterTest, MicrosMatchPrintfIncludingNegatives) {
  for (const int64_t ns :
       {int64_t{0}, int64_t{7}, int64_t{999}, int64_t{1000}, int64_t{1500},
        int64_t{123456789012}, int64_t{-1}, int64_t{-5}, int64_t{-50},
        int64_t{-500}, int64_t{-999}, int64_t{-1000}, int64_t{-1500},
        int64_t{-123456789012}, std::numeric_limits<int64_t>::max(),
        std::numeric_limits<int64_t>::min()}) {
    char want[48];
    std::snprintf(want, sizeof(want), "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    std::ostringstream got;
    {
      ByteWriter w(got);
      w.MicrosFromNanos(ns);
    }
    EXPECT_EQ(got.str(), want) << ns;
  }
}

TEST(ByteWriterTest, ChunksAcrossBufferBoundary) {
  // Writes straddling the 1 MiB buffer edge, plus one larger than the buffer,
  // must come out whole and in order.
  std::ostringstream got;
  std::string want;
  const std::string big(ByteWriter::kChunkBytes + 17, 'x');
  {
    ByteWriter w(got);
    for (int i = 0; i < 200000; ++i) {
      w.Put("ab");
      w.Int(i);
      w.Put('\n');
      want += "ab" + std::to_string(i) + "\n";
    }
    w.Put(big);
    w.MicrosFromNanos(1234);
    want += big + "1.234";
  }
  EXPECT_EQ(got.str(), want);
}

// --- rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(RngTest, NormalMomentsConverge) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 100'000; ++i) {
    stat.Add(rng.Normal(10.0, 2.0));
  }
  EXPECT_NEAR(stat.mean(), 10.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(RngTest, LogNormalMedianConverges) {
  Rng rng(19);
  SampleSet samples;
  for (int i = 0; i < 50'000; ++i) {
    samples.Add(rng.LogNormal(100.0, 0.5));
  }
  EXPECT_NEAR(samples.Median(), 100.0, 3.0);
}

TEST(RngTest, ChanceProbabilityConverges) {
  Rng rng(23);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    hits += rng.Chance(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, TimeHelpersNonNegative) {
  Rng rng(29);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(rng.ExponentialTime(Milliseconds(1)), 0);
    EXPECT_GE(rng.NormalTime(Microseconds(10), Microseconds(50)), 0);
  }
}

TEST(RngTest, UniformTimeRange) {
  Rng rng(31);
  for (int i = 0; i < 10'000; ++i) {
    const TimeNs t = rng.UniformTime(Microseconds(2), Microseconds(5));
    EXPECT_GE(t, Microseconds(2));
    EXPECT_LE(t, Microseconds(5));
  }
  // Degenerate range.
  EXPECT_EQ(rng.UniformTime(Microseconds(4), Microseconds(4)), Microseconds(4));
  EXPECT_EQ(rng.UniformTime(Microseconds(5), Microseconds(2)), Microseconds(5));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_NE(child1.NextU64(), child2.NextU64());
  // Forking is deterministic in (parent state, salt).
  Rng parent2(37);
  Rng child1b = parent2.Fork(1);
  EXPECT_EQ(Rng(37).Fork(1).NextU64(), child1b.NextU64());
}

// --- stats ---

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MergeMatchesCombinedStream) {
  Rng rng(41);
  RunningStat all;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Normal(3.0, 1.5);
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleSetTest, ExactQuantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.25), 25.75, 1e-9);
}

TEST(SampleSetTest, MeanMinMax) {
  SampleSet s;
  s.Add(1.0);
  s.Add(2.0);
  s.Add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

// --- histogram ---

TEST(HistogramTest, CountsAndBounds) {
  LatencyHistogram h;
  h.Add(Microseconds(10));
  h.Add(Microseconds(20));
  h.Add(Milliseconds(5));
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.min(), Microseconds(10));
  EXPECT_EQ(h.max(), Milliseconds(5));
}

TEST(HistogramTest, QuantileResolution) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Add(Microseconds(i));
  }
  // Log-bucketed: expect ~3-6% relative accuracy.
  EXPECT_NEAR(ToMicroseconds(h.Quantile(0.5)), 500, 40);
  EXPECT_NEAR(ToMicroseconds(h.Quantile(0.99)), 990, 70);
}

TEST(HistogramTest, MeanIsExact) {
  LatencyHistogram h;
  h.Add(Microseconds(100));
  h.Add(Microseconds(300));
  EXPECT_DOUBLE_EQ(h.MeanNs(), static_cast<double>(Microseconds(200)));
}

TEST(HistogramTest, CdfIsMonotoneAndEndsAtOne) {
  LatencyHistogram h;
  Rng rng(43);
  for (int i = 0; i < 10'000; ++i) {
    h.Add(rng.ExponentialTime(Milliseconds(3)));
  }
  const auto cdf = h.Cdf();
  ASSERT_FALSE(cdf.empty());
  double prev = 0.0;
  TimeNs prev_v = -1;
  for (const auto& p : cdf) {
    EXPECT_GE(p.fraction, prev);
    EXPECT_GT(p.value, prev_v);
    prev = p.fraction;
    prev_v = p.value;
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(HistogramTest, MergeAddsCounts) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Add(Microseconds(1));
  b.Add(Microseconds(2));
  b.Add(Microseconds(3));
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.max(), Microseconds(3));
}

TEST(HistogramTest, ZeroAndNegativeGoToFirstBucket) {
  LatencyHistogram h;
  h.Add(0);
  h.Add(-5);
  EXPECT_EQ(h.count(), 2);
  EXPECT_LE(h.Quantile(1.0), 1);
}

TEST(HistogramTest, EmptyIsAllZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.MeanNs(), 0.0);
  EXPECT_EQ(h.Quantile(0.0), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
  EXPECT_EQ(h.Quantile(1.0), 0);
  EXPECT_TRUE(h.Cdf().empty());
}

TEST(HistogramTest, SingleSample) {
  LatencyHistogram h;
  h.Add(Microseconds(10));
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), Microseconds(10));
  EXPECT_EQ(h.max(), Microseconds(10));
  EXPECT_EQ(h.MeanNs(), 10000.0);
  // Any strictly-positive quantile lands in the sample's bucket, which clamps
  // its upper bound to the observed max: the exact value comes back.
  EXPECT_EQ(h.Quantile(0.5), Microseconds(10));
  EXPECT_EQ(h.Quantile(1.0), Microseconds(10));
  ASSERT_EQ(h.Cdf().size(), 1u);
  EXPECT_EQ(h.Cdf()[0].value, Microseconds(10));
  EXPECT_EQ(h.Cdf()[0].fraction, 1.0);
}

TEST(HistogramTest, AllEqualSamplesCollapseEveryQuantile) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Add(Microseconds(3));
  }
  EXPECT_EQ(h.Quantile(0.01), Microseconds(3));
  EXPECT_EQ(h.Quantile(0.5), Microseconds(3));
  EXPECT_EQ(h.Quantile(0.99), Microseconds(3));
  EXPECT_EQ(h.Quantile(1.0), Microseconds(3));
}

TEST(HistogramTest, QuantileArgumentIsClampedAndMonotone) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(Microseconds(i));
  }
  // Out-of-range q clamps rather than misbehaving.
  EXPECT_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_EQ(h.Quantile(1.5), h.Quantile(1.0));
  // p100 is exactly the observed max; quantiles never regress as q grows.
  EXPECT_EQ(h.Quantile(1.0), Microseconds(100));
  TimeNs prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const TimeNs v = h.Quantile(q);
    EXPECT_GE(v, prev) << "quantile regressed at q=" << q;
    prev = v;
  }
}

TEST(HistogramTest, BucketBoundaryValuesKeepRelativeResolution) {
  // Powers of two sit exactly on octave boundaries — the worst case for a
  // log-bucketed histogram. The ~3%-resolution promise must still hold.
  LatencyHistogram h;
  for (int shift = 4; shift <= 30; ++shift) {
    LatencyHistogram one;
    const TimeNs v = static_cast<TimeNs>(1) << shift;
    one.Add(v);
    one.Add(v + 1);
    one.Add(v - 1);
    const TimeNs p50 = one.Quantile(0.5);
    EXPECT_GE(p50, v - 1 - (v >> 4));
    EXPECT_LE(p50, v + 1 + (v >> 4));
    h.Merge(one);
  }
  EXPECT_EQ(h.count(), 3 * 27);
}

// --- table ---

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"a", "long_header"});
  t.AddRow({"x", "1"});
  t.AddRow({"yy", "22"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("a   long_header"), std::string::npos);
  EXPECT_NE(out.find("yy  22"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  TextTable t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.RenderCsv(), "a,b\n1,2\n");
}

TEST(TableTest, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_NE(t.Render().find("only"), std::string::npos);
}

TEST(TableTest, NumAndIntFormat) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Int(42), "42");
}

// --- cost model ---

TEST(CostModelTest, PaperCalibratedValues) {
  const CostModel& cost = DefaultCostModel();
  // Table 1: channel read = 0.91 us.
  EXPECT_EQ(cost.channel_syscall + cost.channel_hypercall, Nanoseconds(910));
  // Table 3: master-side freeze total = 2.10 us.
  EXPECT_EQ(cost.freeze_syscall + cost.freeze_lock + cost.freeze_mask_update +
                cost.freeze_group_power_update + cost.freeze_hypercall +
                cost.freeze_resched_ipi,
            Nanoseconds(2100));
  // Xen defaults quoted by the paper.
  EXPECT_EQ(cost.hv_time_slice, Milliseconds(30));
  EXPECT_EQ(cost.vscale_recalc_period, Milliseconds(10));
  EXPECT_EQ(cost.guest_tick_period, Milliseconds(1));  // 1000 HZ
}

}  // namespace
}  // namespace vscale
