/**
 * @file
 * The traced run: per-layer metrics from spans the harness opens
 * around calls into each layer's public functions.
 */

#ifndef LAPSES_PERFBENCH_TRACED_RUN_HPP
#define LAPSES_PERFBENCH_TRACED_RUN_HPP

#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "workloads.hpp"

namespace perfbench
{

/**
 * Run the workload's campaign once untraced (its wall time, gate and
 * record hashes), then drive every simulated point twice as Simulation
 * construct + run(): once untraced and once traced. Returns a JSON
 * object with the per-layer metrics, the gate outcome and the record
 * hashes; the spans are written to spans_path at the end.
 */
std::string tracedRun(const Workload& w,
                      const std::vector<lapses::CampaignRun>& runs,
                      const std::string& spans_path, bool perturb);

} // namespace perfbench

#endif // LAPSES_PERFBENCH_TRACED_RUN_HPP
