/**
 * @file
 * The benchmark's named workloads: each is a fixed list of experiment
 * configurations derived from the seed, run one at a time through
 * workload::runWriteExperiment. README.md records why each was chosen.
 */

#ifndef SMARTDS_PERFBENCH_WORKLOADS_H_
#define SMARTDS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/experiment.h"

namespace smartds::perfbench {

/** One experiment of a workload's list. */
struct Run
{
    std::string label;
    workload::ExperimentConfig config;
    /** Counts toward sim_gbps and the per-design / usage metrics. */
    bool saturating = true;
};

struct Workload
{
    std::string name;
    std::vector<Run> runs;
    /** Index into runs of the config the dsan verification pass reruns. */
    std::size_t verifyRun = 0;
    /** Compare against the paper's Fig 7 values (accuracy.* metrics). */
    bool fig7Reference = false;
};

/** Names accepted by makeWorkload(), in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed; nullopt for an unknown name. */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::uint64_t seed);

/**
 * Every field of @p config as `key=value` lines: the text the manifest's
 * config digest is taken over.
 */
std::string describeConfig(const workload::ExperimentConfig &config);

/** Snake-case design key used in metric names (e.g. "cpu_only"). */
const char *designKey(middletier::Design design);

} // namespace smartds::perfbench

#endif // SMARTDS_PERFBENCH_WORKLOADS_H_
