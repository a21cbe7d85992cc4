/**
 * @file
 * lapses-perfbench: the wall-clock benchmark harness. perfbench/run.py
 * drives it; each mode prints one JSON object on stdout.
 *
 *   lapses-perfbench configs --workload W --seed N [--quick]
 *   lapses-perfbench setup   --workload W --seed N [--quick]
 *   lapses-perfbench run     --workload W --seed N --seconds S
 *                            [--quick] [--perturb]
 *   lapses-perfbench trace   --workload W --seed N --spans FILE
 *                            [--quick] [--perturb]
 *
 * configs: what the seed generated (config digest, point count).
 * setup:   wall seconds to construct Simulation for the first point;
 *          run once per fresh process so nothing is warm.
 * run:     runCampaign repeated for S seconds (at least once), wall
 *          and CPU seconds of each call, peak RSS, invariant gate and
 *          record hashes.
 * trace:   the traced run (traced_run.cpp).
 * calibrate: seconds of a fixed memory-bound loop (fastest of 3), a
 *          gauge of the host's current speed recorded with every result.
 * --perturb alters one statistic of the first result before its record
 * is hashed, to prove the reference-record check trips.
 */

#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/simulation.hpp"
#include "json.hpp"
#include "traced_run.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 1.0;
    bool quick = false;
    bool perturb = false;
    std::string spans;
};

Args
parseArgs(int argc, char** argv)
{
    if (argc < 2)
        throw std::invalid_argument("usage: lapses-perfbench "
                                    "configs|setup|run|trace|calibrate "
                                    "--workload W "
                                    "--seed N [--seconds S] [--quick] "
                                    "[--perturb] [--spans FILE]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::stoull(value());
        else if (arg == "--seconds")
            a.seconds = std::stod(value());
        else if (arg == "--spans")
            a.spans = value();
        else if (arg == "--quick")
            a.quick = true;
        else if (arg == "--perturb")
            a.perturb = true;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    return a;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

JsonObject
header(const Args& a, const Workload& w,
       const std::vector<lapses::CampaignRun>& runs)
{
    JsonObject o;
    o.str("workload", w.name)
        .integer("seed", a.seed)
        .boolean("quick", a.quick)
        .integer("jobs", w.jobs)
        .str("kernel", lapses::kernelKindName(w.kernel))
        .integer("intra_jobs", w.intraJobs)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", PERFBENCH_COMPILER)
        .integer("points", runs.size())
        .str("configs_digest", configsDigest(runs));
    return o;
}

/** A fixed dependent-load chase through a 64 MiB single-cycle
 *  permutation (past the private caches, like the simulator's working
 *  sets), fastest of 3: its time tracks how fast the host runs
 *  memory-bound code right now. */
double
calibrationSeconds()
{
    constexpr std::uint32_t kSlots = 16u << 20; // 64 MiB of uint32
    std::vector<std::uint32_t> next(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i)
        next[i] = i;
    // Sattolo's shuffle: one cycle through every slot.
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(next[i], next[x % i]);
    }
    double best = 0.0;
    std::uint32_t at = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < 1'000'000; ++i)
            at = next[at];
        const double t = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        if (rep == 0 || t < best)
            best = t;
    }
    return at == kSlots ? -1.0 : best; // `at` is always < kSlots
}

std::string
setupMode(const Args& a, const Workload& w,
          const std::vector<lapses::CampaignRun>& runs)
{
    const auto t0 = std::chrono::steady_clock::now();
    lapses::Simulation sim(runs.front().config);
    const auto t1 = std::chrono::steady_clock::now();
    return header(a, w, runs)
        .num("setup_s", std::chrono::duration<double>(t1 - t0).count())
        .str("net_kernel", lapses::kernelKindName(sim.network().kernel()))
        .integer("shards", sim.network().shardCount())
        .integer("batch_cap", sim.network().batchCap())
        .text();
}

std::string
runMode(const Args& a, const Workload& w,
        const std::vector<lapses::CampaignRun>& runs)
{
    lapses::CampaignOptions opts;
    opts.jobs = w.jobs;
    opts.skipSaturatedTail = true;

    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<std::string> first_hashes;
    std::vector<std::string> violations;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0;; ++rep) {
        attempted += runs.size();
        const double c0 = cpuSeconds();
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<lapses::RunResult> results;
        try {
            results = lapses::runCampaign(runs, opts);
        } catch (const std::exception& e) {
            failed += runs.size();
            violations.push_back(std::string("campaign threw: ") + e.what());
            break;
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double c1 = cpuSeconds();
        const double wall = std::chrono::duration<double>(t1 - t0).count();
        walls.push_back(wall);
        cpus.push_back(c1 - c0);

        if (a.perturb)
            results.front().stats.hops.add(1.0);
        Gate gate = checkResults(results);
        const std::vector<std::string> hashes = recordHashes(results);
        if (rep == 0) {
            first_hashes = hashes;
        } else {
            // Every repetition must reproduce the first one's records.
            for (std::size_t i = 0; i < hashes.size(); ++i) {
                if (hashes[i] != first_hashes[i]) {
                    gate.failedPoints[i] = true;
                    gate.violations.push_back(
                        "run " + std::to_string(i) +
                        ": record differs between repetitions");
                }
            }
        }
        failed += gate.failedCount();
        violations.insert(violations.end(), gate.violations.begin(),
                          gate.violations.end());

        // Stop when the next repetition would overrun the budget.
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        if (elapsed + wall > a.seconds)
            break;
    }
    if (violations.size() > 20)
        violations.resize(20);
    return header(a, w, runs)
        .numbers("wall_s", walls)
        .numbers("cpu_s", cpus)
        .num("peak_rss_mb", peakRssMb())
        .integer("attempted", attempted)
        .integer("failed", failed)
        .integer("reps", walls.size())
        .strings("violations", violations)
        .strings("record_hashes", first_hashes)
        .text();
}

} // namespace

int
runHarness(int argc, char** argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        const Workload w = makeWorkload(a.workload, a.seed, a.quick);
        const std::vector<lapses::CampaignRun> runs = expand(w, a.seed);
        std::string out;
        if (a.mode == "configs")
            out = header(a, w, runs).text();
        else if (a.mode == "setup")
            out = setupMode(a, w, runs);
        else if (a.mode == "run")
            out = runMode(a, w, runs);
        else if (a.mode == "calibrate")
            out = JsonObject().num("calib_s", calibrationSeconds()).text();
        else if (a.mode == "trace")
            out = header(a, w, runs)
                      .raw("trace", tracedRun(w, runs, a.spans, a.perturb))
                      .text();
        else
            throw std::invalid_argument("unknown mode " + a.mode);
        std::cout << out << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "lapses-perfbench: " << e.what() << "\n";
        return 2;
    }
}

} // namespace perfbench

int
main(int argc, char** argv)
{
    return perfbench::runHarness(argc, argv);
}
