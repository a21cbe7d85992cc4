#include "checks.hpp"

#include <cstdio>

#include "exp/result_sink.hpp"

namespace perfbench
{

std::uint64_t
fnv1a(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::vector<std::string>
invariantViolations(const lapses::RunResult& r)
{
    std::vector<std::string> out;
    const lapses::SimConfig& cfg = r.run.config;
    const lapses::SimStats& s = r.stats;
    const std::string at = "run " + std::to_string(r.run.index) + ": ";
    if (!r.executed) {
        out.push_back(at + "not executed");
        return out;
    }
    if (r.inferredSaturated)
        return out; // not simulated: marked "Sat." from a lighter load
    if (cfg.closedLoop()) {
        if (s.saturated) {
            out.push_back(at + "closed-loop point saturated");
            return out;
        }
        if (s.requestsIssued !=
            s.requestsCompleted + s.requestsFailed) {
            out.push_back(at + "request books do not balance: issued " +
                          std::to_string(s.requestsIssued) +
                          " != completed " +
                          std::to_string(s.requestsCompleted) +
                          " + failed " +
                          std::to_string(s.requestsFailed));
        }
        if (s.requestsIssued < cfg.measureMessages)
            out.push_back(at + "fewer requests issued than the quota");
    } else if (!s.saturated) {
        if (s.deliveredMessages != s.injectedMessages) {
            out.push_back(at + "delivered " +
                          std::to_string(s.deliveredMessages) +
                          " of " + std::to_string(s.injectedMessages) +
                          " measured messages");
        }
        if (s.injectedMessages < cfg.measureMessages)
            out.push_back(at + "fewer messages measured than the quota");
    }
    if (!s.saturated &&
        s.linkDownEvents != static_cast<std::uint64_t>(cfg.faultCount)) {
        out.push_back(at + "applied " + std::to_string(s.linkDownEvents) +
                      " of " + std::to_string(cfg.faultCount) +
                      " link-down events");
    }
    return out;
}

Gate
checkResults(const std::vector<lapses::RunResult>& results)
{
    Gate g;
    for (const lapses::RunResult& r : results) {
        std::vector<std::string> v = invariantViolations(r);
        g.failedPoints.push_back(!v.empty());
        g.violations.insert(g.violations.end(), v.begin(), v.end());
    }
    return g;
}

std::vector<std::string>
recordHashes(const std::vector<lapses::RunResult>& results)
{
    std::vector<std::string> out;
    out.reserve(results.size());
    for (const lapses::RunResult& r : results)
        out.push_back(hex64(fnv1a(lapses::runResultJson(r))));
    return out;
}

std::string
configsDigest(const std::vector<lapses::CampaignRun>& runs)
{
    std::string all;
    for (const lapses::CampaignRun& r : runs)
        all += lapses::runRecordPrefix(r, lapses::SinkFormat::Jsonl) + "\n";
    return hex64(fnv1a(all));
}

} // namespace perfbench
