/**
 * @file
 * Reproduces Figure 3.24: execution times of the fetch-and-op
 * applications (Gamteb, TSP, AQ kernels) under the queue-lock counter,
 * the combining tree, and the reactive fetch-and-op, normalized to the
 * best algorithm per configuration.
 */
#include <iostream>

#include "apps/workloads.hpp"
#include "bench_common.hpp"

using namespace reactive;
using namespace reactive::bench;

namespace {

struct TreeFetchOpApps : CombiningFetchOp<sim::SimPlatform> {
    explicit TreeFetchOpApps(std::uint32_t procs)
        : CombiningFetchOp<sim::SimPlatform>(procs)
    {
    }
};
struct ReactiveFetchOpApps : ReactiveFetchOp<sim::SimPlatform> {
    explicit ReactiveFetchOpApps(std::uint32_t procs)
        : ReactiveFetchOp<sim::SimPlatform>(procs)
    {
    }
};
struct QueueFetchOpApps : QueueFetchOpSim {
    explicit QueueFetchOpApps(std::uint32_t n) : QueueFetchOpSim(n) {}
};

template <typename Runner>
void app_rows(stats::Table& t, const char* app, Runner run,
              const std::vector<std::uint32_t>& procs)
{
    for (std::uint32_t p : procs) {
        const auto queue = static_cast<double>(
            run(std::type_identity<QueueFetchOpApps>{}, p));
        const auto tree = static_cast<double>(
            run(std::type_identity<TreeFetchOpApps>{}, p));
        const auto reactive = static_cast<double>(
            run(std::type_identity<ReactiveFetchOpApps>{}, p));
        const double best = std::min({queue, tree, reactive});
        t.row({std::string(app) + " P=" + std::to_string(p),
               stats::fmt(queue / best, 2), stats::fmt(tree / best, 2),
               stats::fmt(reactive / best, 2)});
        std::cerr << "." << std::flush;
    }
}

}  // namespace

int main(int argc, char** argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    start_trace(args);
    const std::vector<std::uint32_t> procs =
        args.full ? std::vector<std::uint32_t>{16, 32, 64, 128}
                  : std::vector<std::uint32_t>{16, 32, 64};
    const std::uint32_t scale = args.full ? 2 : 1;

    stats::Table t(
        "Fig 3.24 (fetch-and-op applications): execution time normalized "
        "to the best algorithm");
    t.header({"app", "queue-lock", "combining", "reactive"});

    app_rows(t, "gamteb",
             [&]<typename F>(std::type_identity<F>, std::uint32_t p) {
                 return apps::run_gamteb<F>(p, 60 * scale, args.seed);
             },
             procs);
    app_rows(t, "tsp",
             [&]<typename F>(std::type_identity<F>, std::uint32_t p) {
                 return apps::run_tsp<F>(p, 400 * p / 8 * scale, args.seed);
             },
             procs);
    app_rows(t, "aq",
             [&]<typename F>(std::type_identity<F>, std::uint32_t p) {
                 return apps::run_aq<F>(p, 150 * p / 8 * scale, args.seed);
             },
             procs);
    std::cerr << "\n";
    t.note("paper shape: queue-lock wins at small P, combining tree at");
    t.note("large P (TSP crossover), reactive tracks the winner");
    t.print();
    return finish_trace(args);
}
