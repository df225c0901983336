/**
 * @file
 * Reader-writer lock figure (new in this reproduction; the rwlock
 * analogue of Figure 1.1): cycles per operation for the centralized
 * counter rwlock, the fair queue rwlock, and the reactive rwlock,
 * swept over reader fraction and contending processors, plus the
 * per-column best static choice ("ideal").
 *
 * Expected shape: at high reader fractions the simple protocol wins
 * (one fetch&add admits a reader; readers overlap); at low reader
 * fractions and high processor counts the lock degenerates to a
 * contended mutex and the queue protocol wins (local spinning, O(1)
 * remote references). The reactive rwlock should track the lower
 * envelope at both ends, as the reactive spin lock does for mutexes.
 *
 * A second table runs the phase-shifting workload (read-mostly and
 * write-heavy regimes alternating), where neither static protocol can
 * win both phases.
 *
 * In-binary acceptance check (exit nonzero on failure): every reactive
 * cell lies within 10% of the "ideal (best static)" cell of its
 * column, and the reactive phase-shifting run within 10% of the better
 * static run.
 */
#include <algorithm>
#include <iostream>
#include <string>

#include "apps/workloads.hpp"
#include "bench_common.hpp"
#include "rw/queue_rw_lock.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "rw/simple_rw_lock.hpp"

using namespace reactive;
using namespace reactive::bench;

namespace {

using SimpleRwSim = SimpleRwLock<SimPlatform>;
using QueueRwSim = QueueRwLock<SimPlatform>;
using ReactiveRwSim = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy>;

std::vector<std::uint32_t> rw_procs(bool full)
{
    if (full)
        return {1, 2, 4, 8, 16, 32, 64};
    return {1, 2, 4, 8, 16, 32};
}

std::uint32_t rw_iters(std::uint32_t procs, bool full)
{
    const std::uint32_t scale = full ? 4 : 1;
    if (procs <= 4)
        return 400 * scale;
    if (procs <= 16)
        return 200 * scale;
    return 100 * scale;
}

/// Allowed excess of a reactive figure over the best static one.
constexpr double kTrackTolerance = 1.10;

int g_failures = 0;

/// Counts and reports a reactive figure above kTrackTolerance x best.
void check_tracks(const std::string& cell, double reactive, double best)
{
    if (reactive <= kTrackTolerance * best)
        return;
    ++g_failures;
    std::cout << "  CHECK FAIL [" << cell << "]: reactive="
              << stats::fmt(reactive, 1) << " > 1.1 * best static = "
              << stats::fmt(kTrackTolerance * best, 1) << "\n";
}

/// Cycles per operation for lock RW at one (reader fraction, procs).
template <typename RW>
double rw_cycles_per_op(std::uint32_t procs, std::uint32_t read_permille,
                        bool full, std::uint64_t seed)
{
    const std::uint32_t iters = rw_iters(procs, full);
    const std::uint64_t elapsed =
        apps::run_rw_mix<RW>(procs, iters, read_permille, seed);
    return static_cast<double>(elapsed) /
           (static_cast<double>(procs) * iters);
}

}  // namespace

int main(int argc, char** argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);

    for (std::uint32_t permille : {0u, 500u, 900u, 990u}) {
        stats::Table t("rwlock: cycles per operation, reader fraction " +
                       stats::fmt(permille / 10.0, 1) + "%");
        std::vector<std::string> header{"algorithm"};
        for (std::uint32_t p : rw_procs(args.full))
            header.push_back("P=" + std::to_string(p));
        t.header(header);

        std::vector<std::string> names{"simple (centralized)", "queue (fair)",
                                       "reactive"};
        std::vector<std::vector<double>> rows(names.size());
        for (std::uint32_t p : rw_procs(args.full)) {
            rows[0].push_back(rw_cycles_per_op<SimpleRwSim>(
                p, permille, args.full, args.seed));
            rows[1].push_back(rw_cycles_per_op<QueueRwSim>(
                p, permille, args.full, args.seed));
            rows[2].push_back(rw_cycles_per_op<ReactiveRwSim>(
                p, permille, args.full, args.seed));
            std::cerr << "." << std::flush;
        }
        std::cerr << "\n";

        for (std::size_t i = 0; i < names.size(); ++i) {
            std::vector<std::string> cells{names[i]};
            for (double v : rows[i])
                cells.push_back(stats::fmt(v, 0));
            t.row(cells);
        }
        std::vector<std::string> ideal{"ideal (best static)"};
        const std::vector<std::uint32_t> procs = rw_procs(args.full);
        for (std::size_t c = 0; c < rows[0].size(); ++c) {
            const double best = std::min(rows[0][c], rows[1][c]);
            ideal.push_back(stats::fmt(best, 0));
            check_tracks(stats::fmt(permille / 10.0, 1) + "% reads, P=" +
                             std::to_string(procs[c]),
                         rows[2][c], best);
        }
        t.row(ideal);
        t.note("reactive should track the lower envelope at both ends of");
        t.note("the reader-fraction sweep (within 10% of best static)");
        t.print();
    }

    {
        stats::Table t("rwlock: phase-shifting workload (read-mostly <-> "
                       "write-heavy), elapsed kcycles at P=16");
        t.header({"algorithm", "elapsed"});
        const std::uint32_t phases = args.full ? 8 : 4;
        const std::uint32_t ops = args.full ? 300 : 150;
        const double simple =
            apps::run_rw_phases<SimpleRwSim>(16, phases, ops, args.seed) /
            1000.0;
        const double queue =
            apps::run_rw_phases<QueueRwSim>(16, phases, ops, args.seed) /
            1000.0;
        const double reactive =
            apps::run_rw_phases<ReactiveRwSim>(16, phases, ops, args.seed) /
            1000.0;
        t.row({"simple (centralized)", stats::fmt(simple, 0)});
        t.row({"queue (fair)", stats::fmt(queue, 0)});
        t.row({"reactive", stats::fmt(reactive, 0)});
        check_tracks("phase-shifting, P=16", reactive, std::min(simple, queue));
        t.note("the reactive lock re-converges each phase; neither static");
        t.note("protocol is right for both regimes");
        t.print();
    }
    if (g_failures > 0) {
        std::cout << g_failures << " rwlock tracking check(s) FAILED\n";
        return 1;
    }
    std::cout << "rwlock tracking checks passed (reactive within 10% of "
                 "best static in every cell)\n";
    return 0;
}
