/**
 * @file
 * Entry points of the three workloads. Each untraced entry point fills
 * the end-to-end metrics of its workload; each *_layers entry point
 * runs that workload's traced section and fills its per-layer metrics.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Native worker threads (pinned to CPUs 1-3).
inline constexpr unsigned kWorkers = 3;
/// Discarded warm-up before every measured window, seconds (or the
/// window's own length, if that is shorter).
inline constexpr double kWarmupS = 0.5;
/// Rounds of an untraced native run. Each round sets the workload up
/// afresh (timed), warms it up and measures an equal share of the
/// window, so the set-up repetitions are spread over the whole run as
/// the measured slices are, and a drift of the shared host's speed
/// moves both alike. setup_s is the median over the rounds.
inline constexpr int kRounds = 10;
/// Rounds of interleaved reactive/static reference windows in the
/// traced run; each lock's throughput is the median over its rounds.
inline constexpr int kRefRounds = 3;
/// The traced run times every call of one request in this many: each
/// span costs two TSC reads, which would otherwise slow the traced
/// window enough to change the contention it measures.
inline constexpr std::uint64_t kTraceEvery = 16;

/// Runs kRounds rounds of a native workload built from @p seed: each
/// round times a fresh set-up, then calls round(setup, seconds / kRounds).
/// Adds setup_s, the median set-up time, to @p r.
template <typename Setup, typename Round>
void run_rounds(std::uint64_t seed, double seconds, Result& r, Round&& round)
{
    std::vector<double> times;
    std::string each;
    for (int i = 0; i < kRounds; ++i) {
        const double t0 = wall_s();
        auto s = std::make_unique<Setup>(seed);
        times.push_back(wall_s() - t0);
        each += (i ? ", " : "") + fmt(times.back());
        round(*s, seconds / kRounds);
    }
    r.add("setup_s", median(times), "s");
    r.note("setup_s = median of the rounds' set-ups (" + each + " s)");
}

/// Runs one closed-loop window of a native workload's clients, each
/// executing loop(t, slice), and adds its slices to @p into.
template <typename Setup, typename Loop>
void run_clients(Setup& s, double seconds, Slices& into, Loop&& loop)
{
    const unsigned slices = slices_for(seconds);
    std::vector<const SliceStats*> stats;
    for (auto& c : s.clients) {
        c->stats.reset(slices);
        c->measured = 0;
        stats.push_back(&c->stats);
    }
    into.add(stats, run_window(s.pool, std::min(kWarmupS, seconds), seconds,
                               slices, loop));
}

/// Adds a native workload's requests and failed checks (plus @p bad
/// from its end-of-run checks) to @p r, noting what the failed
/// requests saw (Setup::kRequestCheck), and flags a run whose workers
/// could not be pinned.
template <typename Setup>
void account(const Setup& s, std::uint64_t bad, Result& r)
{
    std::uint64_t failed = 0;
    for (const auto& c : s.clients) {
        r.attempted += c->requests;
        failed += c->failed;
    }
    if (failed != 0)
        r.note("FAIL: " + std::to_string(failed) + " requests in which " +
               Setup::kRequestCheck);
    r.failed += failed + bad;
    if (s.pool.pin_failures() != 0)
        r.note("WARNING: " + std::to_string(s.pool.pin_failures()) +
               " worker(s) could not be pinned; this run is scheduler-placed");
}

/// The *_layers entry points run their traced section on about
/// @p budget seconds of measured windows.
void kv_zipf(const Args& args, Result& r);
void kv_zipf_layers(const Args& args, double budget, Result& r);

void rw_cache(const Args& args, Result& r);
void rw_cache_layers(const Args& args, double budget, Result& r);

void sim_suite(const Args& args, Result& r);
void sim_suite_layers(const Args& args, double budget, Result& r);

/// Runs every sim kernel once and adds the five exact sim_* cycle
/// metrics (identical on every run and every workload) to @p r,
/// counting the kernels' checked operations as attempted.
void sim_cycles_once(Result& r);

}  // namespace perfbench
