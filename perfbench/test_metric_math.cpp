// Tests for the benchmark's metric arithmetic and run manifest.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "metric_math.h"

namespace {

using namespace smartds::perfbench;

TEST(Geomean, MatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-12);
    // Scale-free: scaling one run by k scales the mean by k^(1/n).
    EXPECT_NEAR(geomean({3.0, 12.0}) / geomean({3.0, 3.0}), 2.0, 1e-12);
}

TEST(Geomean, UndefinedInputsGiveZero)
{
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(geomean({5.0, 0.0}), 0.0);
    EXPECT_EQ(geomean({5.0, -1.0}), 0.0);
    EXPECT_EQ(geomean({5.0, std::nan("")}), 0.0);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(FailRatio, CountsUnservedReadsAndAbandonedReplicas)
{
    // (unserved + abandoned) / (completed + unserved)
    EXPECT_DOUBLE_EQ(failRatio(0, 0, 1000), 0.0);
    EXPECT_DOUBLE_EQ(failRatio(100, 0, 900), 0.1);
    EXPECT_DOUBLE_EQ(failRatio(0, 50, 1000), 0.05);
    EXPECT_DOUBLE_EQ(failRatio(5745, 0, 9224), 5745.0 / (9224.0 + 5745.0));
    EXPECT_DOUBLE_EQ(failRatio(0, 0, 0), 0.0);
}

TEST(P99, NeedsTenSamplesBeyondIt)
{
    EXPECT_EQ(samplesBeyondP99(100), 1u);
    EXPECT_EQ(samplesBeyondP99(999), 9u);
    EXPECT_EQ(samplesBeyondP99(1000), 10u);
    EXPECT_EQ(samplesBeyondP99(1099), 10u);
    EXPECT_EQ(samplesBeyondP99(1100), 11u);
    EXPECT_FALSE(p99Resolved(0));
    EXPECT_FALSE(p99Resolved(999));
    EXPECT_TRUE(p99Resolved(1000));
    EXPECT_TRUE(p99Resolved(100000));
}

TEST(Manifest, CarriesEveryField)
{
    Manifest m;
    m.revision = "abc123";
    m.nproc = 4;
    m.cpuModel = "Vendor \"X\" CPU";
    m.workload = "fig7_writes";
    m.seed = 7;
    m.configDigest = hex64(fnv1a64("design=smartds\n"));
    const std::string json = m.toJson();
    EXPECT_EQ(json,
              "{\"revision\":\"abc123\",\"host\":{\"nproc\":4,"
              "\"cpu_model\":\"Vendor \\\"X\\\" CPU\"},"
              "\"workload\":\"fig7_writes\",\"seed\":7,"
              "\"config_digest\":\"" +
                  m.configDigest + "\"}");
    EXPECT_EQ(m.configDigest.size(), 16u);
}

TEST(Manifest, DigestSeparatesConfigs)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(fnv1a64("cores=2\n"), fnv1a64("cores=4\n"));
    EXPECT_EQ(hex64(0xabcull), "0000000000000abc");
}

TEST(Json, EscapesControlCharacters)
{
    EXPECT_EQ(jsonString("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(jsonString("tab\t"), "\"tab\\u0009\"");
}

} // namespace
