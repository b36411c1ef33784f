/**
 * @file
 * The benchmark's metric arithmetic and run manifest, kept free of
 * simulator dependencies so test_metric_math.cpp can pin it down.
 */

#ifndef SMARTDS_PERFBENCH_METRIC_MATH_H_
#define SMARTDS_PERFBENCH_METRIC_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace smartds::perfbench {

/**
 * Geometric mean of @p values; 0 when the list is empty or any value is
 * not positive (a geometric mean is undefined there, and a zero result
 * is what makes the caller's "must be > 0" check fail).
 */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Median of @p values (mean of the middle two for an even count). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/**
 * Share of requests that failed: reads that exhausted every replica plus
 * replicas abandoned after exhausting retries, over the requests the
 * clients saw complete plus the unserved reads.
 */
inline double
failRatio(std::uint64_t reads_unserved, std::uint64_t replicas_abandoned,
          std::uint64_t requests_completed)
{
    const std::uint64_t attempted = requests_completed + reads_unserved;
    if (attempted == 0)
        return 0.0;
    return static_cast<double>(reads_unserved + replicas_abandoned) /
           static_cast<double>(attempted);
}

/** Samples ranked strictly above the p99 rank, ceil(0.99 n), of @p n. */
inline std::uint64_t
samplesBeyondP99(std::uint64_t n)
{
    return n - (99 * n + 99) / 100;
}

/** A p99 is reported only with at least ten samples beyond it. */
inline bool
p99Resolved(std::uint64_t n)
{
    return samplesBeyondP99(n) >= 10;
}

/** 64-bit FNV-1a of @p text (the manifest's config digest). */
inline std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** @p text as a quoted JSON string. */
inline std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (unsigned char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

/**
 * What a benchmark record was measured on. Two records may be compared
 * only when host, workload, seed and config digest all match; the
 * revision is what differs between the two sides of a comparison.
 */
struct Manifest
{
    std::string revision;
    unsigned nproc = 0;
    std::string cpuModel;
    std::string workload;
    std::uint64_t seed = 0;
    /** fnv1a64 over the workload's described configs, hex. */
    std::string configDigest;

    std::string
    toJson() const
    {
        return "{\"revision\":" + jsonString(revision) +
               ",\"host\":{\"nproc\":" + std::to_string(nproc) +
               ",\"cpu_model\":" + jsonString(cpuModel) +
               "},\"workload\":" + jsonString(workload) +
               ",\"seed\":" + std::to_string(seed) +
               ",\"config_digest\":" + jsonString(configDigest) + "}";
    }
};

/** @p v as 16 lower-case hex digits. */
inline std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace smartds::perfbench

#endif // SMARTDS_PERFBENCH_METRIC_MATH_H_
