#include "traced_run.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "checks.hpp"
#include "core/simulation.hpp"
#include "json.hpp"
#include "trace.hpp"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Integer work counters summed over the traced points. */
struct Counters
{
    std::uint64_t routerSteps = 0;
    std::uint64_t nicSteps = 0;
    std::uint64_t wireEvents = 0;
    std::uint64_t fastForwarded = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t routerCycles = 0; //!< sum of routers x simulated cycles
    std::uint64_t flits = 0;        //!< delivered messages x msglen
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t linkDown = 0;
    std::uint64_t reconfigurations = 0;
    std::uint64_t reroutedHeads = 0;
    std::uint64_t droppedMessages = 0;

    void
    add(lapses::Simulation& sim, const lapses::SimStats& s)
    {
        lapses::Network& net = sim.network();
        const lapses::Network::KernelCounters k = net.kernelCounters();
        routerSteps += k.routerSteps;
        nicSteps += k.nicSteps;
        wireEvents += k.wireEventsDelivered;
        fastForwarded += k.fastForwardedCycles;
        simCycles += net.now();
        routerCycles += net.now() * sim.topology().numNodes();
        flits += net.deliveredTotal() *
                 static_cast<std::uint64_t>(sim.config().msgLen);
        if (net.closedLoop()) {
            const lapses::Network::WorkloadCounters w =
                net.workloadCounters();
            issued += w.issued;
            completed += w.completed;
            retries += w.retries;
            timeouts += w.timeouts;
            duplicates += w.duplicateRequests + w.duplicateReplies;
        }
        linkDown += s.linkDownEvents;
        reconfigurations += s.reconfigurations;
        reroutedHeads += s.reroutedHeads;
        droppedMessages += s.droppedMessages;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nanoseconds per RoutingTable::lookup over a fixed pseudo-random
 *  set of (router, endpoint) pairs, repeated for at least 0.1 s. */
double
lookupNs(const lapses::RoutingTable& table)
{
    const lapses::Topology& topo = table.topology();
    std::vector<std::pair<lapses::NodeId, lapses::NodeId>> pairs;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    while (pairs.size() < (1u << 16)) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const auto r = static_cast<lapses::NodeId>(
            (x >> 33) % static_cast<std::uint64_t>(topo.numNodes()));
        const auto d = topo.endpoint(static_cast<lapses::NodeId>(
            (x >> 11) % static_cast<std::uint64_t>(topo.numEndpoints())));
        if (r != d)
            pairs.emplace_back(r, d);
    }
    std::uint64_t lookups = 0;
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
        for (const auto& [r, d] : pairs)
            sink += static_cast<std::uint64_t>(table.lookup(r, d).count());
        lookups += pairs.size();
        elapsed = since(t0);
    } while (elapsed < 0.1);
    if (sink == 0)
        throw std::runtime_error("routing table returned no candidates");
    return elapsed * 1e9 / static_cast<double>(lookups);
}

/** Seconds of Simulation construct + run() for one point, untraced. */
double
untracedPoint(const lapses::SimConfig& cfg)
{
    const Clock::time_point t0 = Clock::now();
    lapses::Simulation sim(cfg);
    sim.run();
    return since(t0);
}

} // namespace

std::string
tracedRun(const Workload& w, const std::vector<lapses::CampaignRun>& runs,
          const std::string& spans_path, bool perturb)
{
    // 1. The campaign as the run mode times it: wall time for
    //    exp.worker_busy_frac, the gate, the record hashes, and which
    //    points were simulated (not inferred "Sat.").
    lapses::CampaignOptions opts;
    opts.jobs = w.jobs;
    opts.skipSaturatedTail = true;
    const Clock::time_point c0 = Clock::now();
    std::vector<lapses::RunResult> results = lapses::runCampaign(runs, opts);
    const double campaign_wall = since(c0);
    if (perturb)
        results.front().stats.hops.add(1.0);
    const Gate gate = checkResults(results);
    std::vector<const lapses::CampaignRun*> points;
    std::uint64_t saturated = 0;
    for (const lapses::RunResult& r : results) {
        saturated += r.stats.saturated ? 1 : 0;
        if (r.executed && !r.inferredSaturated)
            points.push_back(&r.run);
    }

    // 2. The same points untraced, for the tracing overhead.
    double untraced = 0.0;
    for (const lapses::CampaignRun* p : points)
        untraced += untracedPoint(p->config);

    // 3. The traced pass.
    Tracer tr;
    Counters ctr;
    std::size_t entries_per_router = 0;
    double lookup_ns = 0.0;
    std::uint64_t shards = 0;
    std::uint64_t batch_cap = 0;
    int rerun_span = -1;
    int first_run_span = -1;
    for (const lapses::CampaignRun* p : points) {
        const lapses::SimConfig& cfg = p->config;
        const long id = static_cast<long>(p->index);
        ScopedSpan point(tr, "exp.point", id);
        {
            // The factories Simulation's constructor calls, each called
            // here on its own so its share of setup can be named.
            std::unique_ptr<lapses::Topology> topo;
            {
                ScopedSpan s(tr, "topology.build", id);
                topo = std::make_unique<lapses::Topology>(
                    lapses::buildTopology(cfg));
            }
            lapses::RoutingAlgorithmPtr algo;
            {
                ScopedSpan s(tr, "routing.build", id);
                algo = lapses::makeRoutingAlgorithm(cfg.routing, *topo);
            }
            {
                ScopedSpan s(tr, "tables.build", id);
                lapses::makeRoutingTable(cfg.table, *topo, *algo);
            }
            {
                ScopedSpan s(tr, "fault.validate", id);
                lapses::FaultSchedule faults;
                for (const lapses::FaultEvent& e : cfg.faultEvents)
                    faults.add(e);
                if (cfg.faultCount > 0) {
                    faults.appendRandom(
                        *topo, cfg.faultCount,
                        cfg.faultSeed != 0
                            ? cfg.faultSeed
                            : lapses::deriveFaultSeed(cfg.seed),
                        cfg.faultStart, cfg.faultSpacing);
                }
                faults.validate(*topo);
            }
        }
        std::unique_ptr<lapses::Simulation> sim;
        {
            ScopedSpan s(tr, "core.construct", id);
            sim = std::make_unique<lapses::Simulation>(cfg);
        }
        lapses::SimStats stats;
        {
            ScopedSpan s(tr, "core.run", id);
            if (first_run_span < 0)
                first_run_span = static_cast<int>(tr.spans().size()) - 1;
            stats = sim->run();
        }
        ctr.add(*sim, stats);
        if (p != points.front())
            continue;
        entries_per_router = sim->table().entriesPerRouter();
        shards = sim->network().shardCount();
        batch_cap = sim->network().batchCap();
        {
            ScopedSpan s(tr, "tables.lookup", id);
            lookup_ns = lookupNs(sim->table());
        }
        if (w.kernel == lapses::KernelKind::Parallel) {
            // The first point again on the active kernel, for the
            // parallel kernel's speedup on identical work.
            ScopedSpan s(tr, "rerun.active", id);
            lapses::SimConfig active = cfg;
            active.kernel = lapses::KernelKind::Active;
            lapses::Simulation again(active);
            ScopedSpan r(tr, "rerun.run", id);
            rerun_span = static_cast<int>(tr.spans().size()) - 1;
            again.run();
        }
    }

    // Per-layer sums: durations and self times by span name.
    const std::vector<Span>& spans = tr.spans();
    const std::vector<double> self = tr.selfTimes();
    std::map<std::string, double> dur;
    std::map<std::string, double> self_sum;
    double min_self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        dur[spans[i].name] += spans[i].end - spans[i].start;
        self_sum[spans[i].name] += self[i];
        if (self[i] < min_self)
            min_self = self[i];
    }
    auto span_dur = [&](int i) {
        return i < 0 ? 0.0
                     : spans[static_cast<std::size_t>(i)].end -
                           spans[static_cast<std::size_t>(i)].start;
    };
    const double factories = dur["topology.build"] + dur["routing.build"] +
                             dur["tables.build"] + dur["fault.validate"];
    const double construct = dur["core.construct"];
    const double run_s = dur["core.run"];
    // What tracing adds to the same points: the traced pass's
    // factories + construct + run against the untraced construct + run.
    const double traced = factories + construct + run_s;
    const double rerun = span_dur(rerun_span);
    const double first_run = span_dur(first_run_span);

    if (!spans_path.empty())
        tr.write(spans_path);

    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    JsonObject m;
    m.num("topology.build_s", self_sum["topology.build"])
        .num("routing.build_s", self_sum["routing.build"])
        .num("tables.build_s", self_sum["tables.build"])
        .num("fault.validate_s", self_sum["fault.validate"])
        .num("core.construct_s", construct)
        .num("core.network_construct_s", construct - factories)
        .num("tables.entries_per_router", d(entries_per_router))
        .num("tables.lookup_ns", lookup_ns)
        .num("core.run_s", run_s)
        .num("router.steps", d(ctr.routerSteps))
        .num("router.active_share",
             ratio(d(ctr.routerSteps), d(ctr.routerCycles)))
        .num("router.ns_per_step", ratio(run_s * 1e9, d(ctr.routerSteps)))
        .num("network.sim_cycles", d(ctr.simCycles))
        .num("network.router_cycles_per_s", ratio(d(ctr.routerCycles), run_s))
        .num("network.nic_steps", d(ctr.nicSteps))
        .num("network.wire_events", d(ctr.wireEvents))
        .num("network.wire_events_per_flit",
             ratio(d(ctr.wireEvents), d(ctr.flits)))
        .num("network.fast_forwarded_cycles", d(ctr.fastForwarded))
        .num("network.shards", d(shards))
        .num("network.batch_cap", d(batch_cap))
        .num("network.parallel_speedup",
             rerun_span < 0 ? 1.0 : ratio(rerun, first_run))
        .num("workload.retry_ratio", ratio(d(ctr.retries), d(ctr.issued)))
        .num("workload.goodput_ratio",
             ratio(d(ctr.completed), d(ctr.issued)))
        .num("workload.timeouts", d(ctr.timeouts))
        .num("workload.duplicates", d(ctr.duplicates))
        .num("fault.link_down_events", d(ctr.linkDown))
        .num("fault.reconfigurations", d(ctr.reconfigurations))
        .num("fault.rerouted_heads", d(ctr.reroutedHeads))
        .num("fault.dropped_messages", d(ctr.droppedMessages))
        .num("exp.points_executed", d(points.size()))
        .num("exp.points_saturated", d(saturated))
        .num("exp.worker_busy_frac",
             ratio(construct + run_s, w.jobs * campaign_wall))
        .num("trace.overhead_ratio", ratio(traced, untraced));

    return JsonObject()
        .raw("metrics", m.text())
        .num("campaign_wall_s", campaign_wall)
        .num("untraced_points_s", untraced)
        .num("min_self_s", min_self)
        .integer("spans", spans.size())
        .integer("attempted", results.size())
        .integer("failed", gate.failedCount())
        .strings("violations", gate.violations)
        .strings("record_hashes", recordHashes(results))
        .text();
}

} // namespace perfbench
