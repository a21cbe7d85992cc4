/**
 * @file
 * Correctness gate of the benchmark: per-point invariants checked on
 * every seed, and record hashes that run.py compares against the
 * reference records kept with the benchmark.
 */

#ifndef LAPSES_PERFBENCH_CHECKS_HPP
#define LAPSES_PERFBENCH_CHECKS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace perfbench
{

/** 64-bit FNV-1a of a byte string. */
std::uint64_t fnv1a(const std::string& bytes);

/** Fixed-width lowercase hex of a 64-bit value. */
std::string hex64(std::uint64_t v);

/**
 * Invariant violations of one campaign result (empty when it passes):
 * an unsaturated open-loop point delivered exactly the messages it
 * measured (at least the quota); an unsaturated closed-loop point's
 * books balance (issued = completed + failed, issued >= quota), and a
 * closed-loop point never saturates; a faulted point applied every
 * configured link-down event.
 */
std::vector<std::string> invariantViolations(const lapses::RunResult& r);

/** Outcome of the invariant gate over one campaign's results. */
struct Gate
{
    std::vector<bool> failedPoints; //!< by position in the results
    std::vector<std::string> violations;

    std::size_t
    failedCount() const
    {
        std::size_t n = 0;
        for (const bool f : failedPoints)
            n += f ? 1 : 0;
        return n;
    }
};

Gate checkResults(const std::vector<lapses::RunResult>& results);

/** Hash of each result's campaign record (the lapses-campaign JSONL
 *  line), in run-index order. */
std::vector<std::string>
recordHashes(const std::vector<lapses::RunResult>& results);

/** Hash over the expanded configs' record coordinates (axis values,
 *  seeds, measurement scale): what the benchmark seed generated. */
std::string configsDigest(const std::vector<lapses::CampaignRun>& runs);

} // namespace perfbench

#endif // LAPSES_PERFBENCH_CHECKS_HPP
