#include "workloads.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "exp/campaign_cli.hpp"

namespace perfbench
{

namespace
{

/** Fault-site seeds of the fault scenarios: generated from the
 *  benchmark seed, never 0 (0 would mean "derive from the run seed"). */
std::string
faultSeedAxis(std::uint64_t seed, int scenarios)
{
    std::string axis = "fault-seed=";
    for (int k = 0; k < scenarios; ++k) {
        const std::uint64_t s =
            (lapses::deriveSeed(seed, 0xfa17 + k) >> 1) | 1;
        if (k > 0)
            axis += ',';
        axis += std::to_string(s);
    }
    return axis;
}

} // namespace

Workload
makeWorkload(const std::string& name, std::uint64_t seed, bool quick)
{
    Workload w;
    w.name = name;
    if (name == "mesh16-paper-sweep") {
        // Fig. 5's shape: model x routing x traffic x load through
        // saturation, series scheduled over two campaign workers.
        w.flags = {"--mesh", quick ? "4x4" : "16x16",
                   "--table", "economical-storage",
                   "--warmup", quick ? "50" : "100",
                   "--measure", quick ? "200" : "400",
                   "--grid",
                   "model=proud,la-proud; routing=xy,duato; "
                   "traffic=uniform,transpose; " +
                       std::string(quick ? "load=0.2,3.0"
                                         : "load=0.1,0.2,3.0")};
        w.jobs = 2;
    } else if (name == "mesh64-sweep") {
        // Large fabric, loads below the knee: per-point fabric
        // rebuild (table proof) plus the parallel kernel's shards.
        w.flags = {"--mesh", quick ? "8x8" : "64x64",
                   "--table", "economical-storage",
                   "--traffic", "uniform",
                   "--warmup", quick ? "50" : "300",
                   "--measure", quick ? "200" : "1000",
                   "--grid", quick ? "load=0.1,0.3" : "load=0.05,0.25"};
        w.jobs = 1;
        w.kernel = lapses::KernelKind::Parallel;
        w.intraJobs = 2;
    } else if (name == "fattree-service") {
        // Closed-loop request/reply on an irregular fabric with link
        // faults: idle fast-forward, reliability timers, retries and
        // full-table reprogramming.
        w.flags = {"--topology", quick ? "fattree4x3" : "fattree8x3",
                   "--routing", "up-down",
                   "--table", "full-table",
                   "--workload", "request-reply",
                   "--servers", quick ? "8" : "64",
                   "--faults", "4",
                   "--fault-policy", "drop",
                   "--fault-start", quick ? "300" : "400",
                   "--fault-spacing", quick ? "100" : "200",
                   "--warmup", quick ? "50" : "200",
                   "--measure", quick ? "300" : "800",
                   "--grid", faultSeedAxis(seed, 2)};
        w.jobs = 1;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::vector<lapses::CampaignRun>
expand(const Workload& w, std::uint64_t seed)
{
    std::vector<std::string> args = {"lapses-campaign", "--seed",
                                     std::to_string(seed)};
    args.insert(args.end(), w.flags.begin(), w.flags.end());
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    lapses::CampaignCli cli;
    const int argc = static_cast<int>(argv.size());
    for (int i = 1; i < argc; ++i) {
        if (!cli.consume(argc, argv.data(), i))
            throw std::invalid_argument("bad workload flag " + args[i]);
    }
    std::vector<lapses::CampaignRun> runs = cli.runs();
    for (lapses::CampaignRun& r : runs) {
        r.config.kernel = w.kernel;
        r.config.intraJobs = w.intraJobs;
    }
    return runs;
}

} // namespace perfbench
