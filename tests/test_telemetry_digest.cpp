/// LogHistogram (streaming quantile digest) — the data structure under the
/// live observability plane's digests.  Quantile golden tests pin the
/// convention to util::percentile (continuous rank with linear
/// interpolation inside the winning bucket, edges clamped to the observed
/// range) so digest reads are drop-in replacements for sorted full-copy
/// percentile reads.

#include "telemetry/digest.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace gsph::telemetry {
namespace {

// ---------------------------------------------------------------- digest ---

TEST(LogHistogram, EmptyDigestIsZeroEverywhere)
{
    LogHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.sum(), 0.0);
    EXPECT_EQ(hist.mean(), 0.0);
    EXPECT_EQ(hist.quantile(50.0), 0.0);
    EXPECT_EQ(hist.bucket_count(), 0u);
}

TEST(LogHistogram, RejectsBadAccuracy)
{
    EXPECT_THROW(LogHistogram(0.0), std::invalid_argument);
    EXPECT_THROW(LogHistogram(1.0), std::invalid_argument);
    EXPECT_THROW(LogHistogram(-0.5), std::invalid_argument);
}

TEST(LogHistogram, SingleValueReportsExactQuantiles)
{
    // Clamping bucket edges to [min, max] means one observation yields the
    // exact value at every quantile, not a bucket edge (satellite contract).
    LogHistogram hist;
    hist.observe(0.0123456789);
    for (double q : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
        EXPECT_DOUBLE_EQ(hist.quantile(q), 0.0123456789) << "q=" << q;
    }
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_DOUBLE_EQ(hist.min(), 0.0123456789);
    EXPECT_DOUBLE_EQ(hist.max(), 0.0123456789);
}

TEST(LogHistogram, IdenticalValuesReportExactQuantiles)
{
    LogHistogram hist;
    for (int i = 0; i < 1000; ++i) hist.observe(250.0);
    for (double q : {0.0, 50.0, 99.0, 100.0}) {
        EXPECT_DOUBLE_EQ(hist.quantile(q), 250.0) << "q=" << q;
    }
}

TEST(LogHistogram, EdgeQuantilesAreObservedExtremes)
{
    LogHistogram hist;
    std::vector<double> values;
    util::Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const double v = std::exp(rng.uniform(-6.0, 4.0));
        values.push_back(v);
        hist.observe(v);
    }
    EXPECT_DOUBLE_EQ(hist.quantile(0.0), hist.min());
    EXPECT_DOUBLE_EQ(hist.quantile(100.0), hist.max());
    EXPECT_DOUBLE_EQ(hist.min(), util::percentile(values, 0.0));
    EXPECT_DOUBLE_EQ(hist.max(), util::percentile(values, 100.0));
}

TEST(LogHistogram, GoldenQuantilesTrackUtilPercentile)
{
    // The acceptance bound: relative quantile error stays within the
    // configured accuracy (one bucket's relative width) against the exact
    // sorted-copy percentile, across four orders of magnitude.
    LogHistogram hist(0.01);
    std::vector<double> values;
    util::Rng rng(42);
    for (int i = 0; i < 20000; ++i) {
        const double v = 1e-4 * std::exp(rng.uniform(0.0, 9.0));
        values.push_back(v);
        hist.observe(v);
    }
    for (double q : {1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        const double exact = util::percentile(values, q);
        const double approx = hist.quantile(q);
        // Bucket width is 2*alpha relative; interpolation keeps us inside it.
        EXPECT_NEAR(approx, exact, 2.5e-2 * exact) << "q=" << q;
    }
}

TEST(LogHistogram, TwoValuesInterpolateLikePercentile)
{
    // n=2: continuous rank t = q/100 * (n-1), so p50 must be the midpoint
    // when both observations share a (clamped) bucket span — golden check
    // of the interpolation convention rather than bucket-edge snapping.
    LogHistogram hist;
    hist.observe(100.0);
    hist.observe(100.5); // within one 1%-relative bucket of 100.0
    const std::vector<double> values = {100.0, 100.5};
    EXPECT_NEAR(hist.quantile(50.0), util::percentile(values, 50.0), 1e-9);
    EXPECT_DOUBLE_EQ(hist.quantile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(hist.quantile(100.0), 100.5);
}

TEST(LogHistogram, QuantileIsMonotoneInQ)
{
    LogHistogram hist;
    util::Rng rng(3);
    for (int i = 0; i < 5000; ++i) hist.observe(std::exp(rng.uniform(-2.0, 5.0)));
    double prev = hist.quantile(0.0);
    for (double q = 0.5; q <= 100.0; q += 0.5) {
        const double cur = hist.quantile(q);
        EXPECT_GE(cur, prev) << "q=" << q;
        prev = cur;
    }
}

TEST(LogHistogram, ZeroAndNegativeValuesLandInLowBucket)
{
    LogHistogram hist;
    hist.observe(0.0);
    hist.observe(-5.0);
    hist.observe(1.0);
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_DOUBLE_EQ(hist.min(), -5.0);
    EXPECT_DOUBLE_EQ(hist.max(), 1.0);
    EXPECT_DOUBLE_EQ(hist.quantile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(hist.quantile(100.0), 1.0);
    EXPECT_DOUBLE_EQ(hist.sum(), -4.0);
}

TEST(LogHistogram, SumUsesKahanCompensation)
{
    LogHistogram hist;
    hist.observe(1e16);
    for (int i = 0; i < 10000; ++i) hist.observe(1.0);
    // Naive summation loses the +1 increments next to 1e16.
    EXPECT_DOUBLE_EQ(hist.sum(), 1e16 + 10000.0);
}

TEST(LogHistogram, MergeMatchesCombinedObservations)
{
    LogHistogram a, b, combined;
    util::Rng rng(11);
    for (int i = 0; i < 4000; ++i) {
        const double v = std::exp(rng.uniform(-3.0, 3.0));
        (i % 2 ? a : b).observe(v);
        combined.observe(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_DOUBLE_EQ(a.min(), combined.min());
    EXPECT_DOUBLE_EQ(a.max(), combined.max());
    EXPECT_NEAR(a.sum(), combined.sum(), 1e-9 * std::fabs(combined.sum()));
    for (double q : {5.0, 50.0, 95.0, 99.0}) {
        EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q)) << "q=" << q;
    }
}

TEST(LogHistogram, MergeRejectsMismatchedAccuracy)
{
    LogHistogram a(0.01), b(0.02);
    b.observe(1.0); // an empty source merges as a no-op regardless of accuracy
    EXPECT_THROW(a.merge(b), std::invalid_argument);
    LogHistogram empty(0.02);
    EXPECT_NO_THROW(a.merge(empty));
}

TEST(LogHistogram, StateRoundTripIsBitExact)
{
    LogHistogram hist;
    util::Rng rng(5);
    hist.observe(0.0); // exercise the low bucket too
    for (int i = 0; i < 3000; ++i) hist.observe(std::exp(rng.uniform(-4.0, 4.0)));

    LogHistogram restored;
    restored.restore(hist.state());
    EXPECT_EQ(restored.count(), hist.count());
    EXPECT_EQ(restored.bucket_count(), hist.bucket_count());
    for (double q = 0.0; q <= 100.0; q += 2.5) {
        EXPECT_DOUBLE_EQ(restored.quantile(q), hist.quantile(q)) << "q=" << q;
    }

    // Observing the same tail after restore stays bit-identical to never
    // having saved — the checkpoint subsystem's contract.
    for (int i = 0; i < 100; ++i) {
        const double v = 1.0 + i * 0.01;
        hist.observe(v);
        restored.observe(v);
    }
    EXPECT_DOUBLE_EQ(restored.sum(), hist.sum());
    EXPECT_DOUBLE_EQ(restored.quantile(95.0), hist.quantile(95.0));
}

TEST(LogHistogram, RestoreRejectsRaggedState)
{
    LogHistogram hist;
    hist.observe(1.0);
    LogHistogram::State bad = hist.state();
    bad.bucket_count.push_back(7);
    LogHistogram victim;
    EXPECT_THROW(victim.restore(bad), std::invalid_argument);
}

TEST(LogHistogram, ResetReturnsToEmpty)
{
    LogHistogram hist;
    for (int i = 1; i <= 100; ++i) hist.observe(i);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.quantile(50.0), 0.0);
    EXPECT_EQ(hist.bucket_count(), 0u);
}

// ------------------------------------------------- registry Digest glue ---

TEST(RegistryDigest, NameIdentifiesExactlyOneKind)
{
    MetricsRegistry reg;
    reg.counter("plane.mixed");
    EXPECT_THROW(reg.digest("plane.mixed"), std::invalid_argument);
    reg.digest("plane.quantiles");
    EXPECT_THROW(reg.histogram("plane.quantiles"), std::invalid_argument);
    EXPECT_NO_THROW(reg.digest("plane.quantiles")); // same kind: fine
}

TEST(RegistryDigest, ValueReportsCountAndResetZeroes)
{
    MetricsRegistry reg;
    Digest& d = reg.digest("plane.kernel_s");
    d.observe(0.5);
    d.observe(1.5);
    EXPECT_EQ(reg.value("plane.kernel_s"), 2.0);
    EXPECT_TRUE(reg.has("plane.kernel_s"));
    reg.reset();
    EXPECT_EQ(reg.value("plane.kernel_s"), 0.0);
    EXPECT_EQ(d.quantile(50.0), 0.0);
}

TEST(RegistryDigest, SnapshotRestoreRoundTripsThroughSecondRegistry)
{
    MetricsRegistry reg;
    Digest& d = reg.digest("plane.energy_j");
    for (int i = 1; i <= 500; ++i) d.observe(i * 0.25);

    MetricsRegistry other;
    other.restore(reg.snapshot());
    EXPECT_EQ(other.value("plane.energy_j"), 500.0);
    EXPECT_DOUBLE_EQ(other.digest("plane.energy_j").quantile(95.0),
                     d.quantile(95.0));
}

TEST(RegistryDigest, ToJsonGrowsDigestsKeyOnlyWhenPresent)
{
    MetricsRegistry reg;
    reg.counter("c").inc();
    EXPECT_FALSE(reg.to_json().contains("digests"));

    Digest& d = reg.digest("plane.power_w");
    for (int i = 0; i < 100; ++i) d.observe(200.0 + i);
    const Json j = reg.to_json();
    ASSERT_TRUE(j.contains("digests"));
    const Json& entry = j.at("digests").at("plane.power_w");
    EXPECT_EQ(entry.at("count").as_number(), 100.0);
    EXPECT_DOUBLE_EQ(entry.at("min").as_number(), 200.0);
    EXPECT_DOUBLE_EQ(entry.at("max").as_number(), 299.0);
    EXPECT_GT(entry.at("p99").as_number(), entry.at("p50").as_number());
}

} // namespace
} // namespace gsph::telemetry
