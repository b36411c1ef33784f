/**
 * @file
 * Timing loops that measure single layers from outside, through their
 * public functions: the LZ4 codec, xxHash checksums, Reed-Solomon
 * encode/decode, the corpus codec cache and the event kernel.
 */

#ifndef SMARTDS_PERFBENCH_LAYERS_H_
#define SMARTDS_PERFBENCH_LAYERS_H_

#include <functional>
#include <string>

#include "workload/experiment.h"

namespace smartds::perfbench {

struct LayerRates
{
    double lz4CompressMBs = 0.0;
    double lz4DecompressMBs = 0.0;
    /** Compressed / original bytes over the corpus blocks. */
    double lz4Ratio = 0.0;
    double xxhashGBs = 0.0;
    double ecEncodeGBs = 0.0;
    /** Decode with m of the k + m shards lost. */
    double ecDecodeGBs = 0.0;
    double codecCacheBuildS = 0.0;
    double kernelNsPerEvent = 0.0;
};

/** Wraps each timing loop so the caller can record a span around it. */
using SpanScope =
    std::function<void(const std::string &, const std::function<void()> &)>;

/**
 * Time each layer over the corpus blocks @p config's experiment uses
 * (block size, effort, functional or ratio-sampling corpus, RS(k, m)).
 * Returns false if a round trip through a codec did not reproduce its
 * input.
 */
bool measureLayers(const workload::ExperimentConfig &config,
                   const SpanScope &span, LayerRates &out);

} // namespace smartds::perfbench

#endif // SMARTDS_PERFBENCH_LAYERS_H_
