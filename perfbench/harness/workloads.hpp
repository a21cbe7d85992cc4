/**
 * @file
 * The benchmark's workloads. Each is a lapses-campaign invocation
 * (CLI flags + grid spec) plus the execution settings it runs with;
 * expand() turns it into the campaign's runs for one benchmark seed
 * through the same CampaignCli/expandGrids path the CLI uses.
 */

#ifndef LAPSES_PERFBENCH_WORKLOADS_HPP
#define LAPSES_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace perfbench
{

struct Workload
{
    std::string name;
    /** lapses-campaign flags (without --seed), e.g. {"--mesh","16x16"}. */
    std::vector<std::string> flags;
    /** Campaign jobs (worker threads of runCampaign). */
    unsigned jobs = 1;
    lapses::KernelKind kernel = lapses::KernelKind::Active;
    /** Parallel-kernel shard threads; 0 on the active kernel. */
    unsigned intraJobs = 0;
};

/**
 * The named workload for a benchmark seed. Quick mode shrinks every
 * size (fabric, grid, message quotas) for the harness's own test.
 * Throws std::invalid_argument on an unknown name.
 */
Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      bool quick);

/** The workload's campaign runs (campaign seed = benchmark seed), with
 *  the workload's kernel and intra-jobs applied to every run. */
std::vector<lapses::CampaignRun> expand(const Workload& w,
                                        std::uint64_t seed);

} // namespace perfbench

#endif // LAPSES_PERFBENCH_WORKLOADS_HPP
