/**
 * @file
 * Decision-audit acceptance (ISSUE: decision-quality observability PR).
 *
 * Compiled with REACTIVE_TRACE forced on (audit rides the trace gate).
 *
 *  - Regret-counter exactness: record() arithmetic (clamp at zero),
 *    per-object attribution and worst-offender ordering, and the
 *    table-full overflow path folding into exact per-class totals.
 *  - best_alternative() dispatch: estimator-pair policies, ladder
 *    policies with unmeasured rungs, and estimate-free policies
 *    (nullopt — no counterfactual, no sample).
 *  - Integration: a calibrated lock run emits regret samples whose
 *    count matches the drop-immune metric shard and whose payloads
 *    satisfy regret == max(0, realized - best). This is also the
 *    regression test for the estimate-free traces the old binary-policy
 *    adapter produced — a calibrated policy must not trace as
 *    estimate-free.
 *  - Zero overhead: the same simulated episode stream with audit
 *    runtime-disabled vs enabled produces identical elapsed cycles and
 *    identical machine mem-op counts — the audit-off schedule is
 *    byte-identical to one that never took a sample. The compiled-out
 *    half is checked in CI by byte-diffing fig binary output across
 *    build modes.
 *  - Oracle replay determinism: same stream + same seed → bit-identical
 *    costs for static, reactive, and clairvoyant replays.
 *  - Native storm: writer threads record()ing while a reader loops
 *    audit_snapshot(); every observed word must be a value some prefix
 *    of the writes produced. Runs under TSan in CI.
 */
#define REACTIVE_TRACE 1

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "apps/workloads.hpp"
#include "audit/audit.hpp"
#include "audit/oracle.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/cost_model.hpp"
#include "core/policy.hpp"
#include "core/reactive_mutex.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/tts_lock.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

using namespace reactive;
using sim::SimPlatform;

namespace {

static_assert(audit::kCompiled, "this TU must compile the audit layer in");

using OC = trace::ObjectClass;

// ---- regret-counter exactness -----------------------------------------

TEST(AuditRecordTest, ClampsAtZeroAndSumsExactly)
{
    audit::reset();
    EXPECT_EQ(audit::record(OC::kLock, 5, 100, 60), 40u);
    EXPECT_EQ(audit::record(OC::kLock, 5, 50, 60), 0u)
        << "beating the best alternative is zero regret, not negative";
    EXPECT_EQ(audit::record(OC::kLock, 5, 60, 60), 0u);

    const audit::Snapshot s = reactive::audit_snapshot();
    ASSERT_EQ(s.objects.size(), 1u);
    EXPECT_EQ(s.objects[0].object, 5u);
    EXPECT_EQ(s.objects[0].cls, OC::kLock);
    EXPECT_EQ(s.objects[0].samples, 3u);
    EXPECT_EQ(s.objects[0].realized, 210u);
    EXPECT_EQ(s.objects[0].best, 180u);
    EXPECT_EQ(s.objects[0].regret, 40u);

    const auto& row = s.classes[static_cast<std::size_t>(OC::kLock)];
    EXPECT_EQ(row.samples, 3u);
    EXPECT_EQ(row.realized, 210u);
    EXPECT_EQ(row.best, 180u);
    EXPECT_EQ(row.regret, 40u);
    EXPECT_EQ(row.overflow_objects, 0u);
    EXPECT_EQ(s.total_samples(), 3u);
    EXPECT_EQ(s.total_regret(), 40u);
    audit::reset();
}

TEST(AuditRecordTest, WorstOffenderOrderingAndClassSeparation)
{
    audit::reset();
    audit::record(OC::kLock, 1, 150, 50);     // regret 100
    audit::record(OC::kLock, 2, 400, 100);    // regret 300
    audit::record(OC::kBarrier, 3, 10, 500);  // regret 0
    const audit::Snapshot s = audit::snapshot();
    ASSERT_EQ(s.objects.size(), 3u);
    EXPECT_EQ(s.objects[0].object, 2u) << "regret-descending";
    EXPECT_EQ(s.objects[1].object, 1u);
    EXPECT_EQ(s.objects[2].object, 3u);
    // Accounts never mix across classes (DESIGN.md: regret is only
    // sound per class).
    EXPECT_EQ(s.classes[static_cast<std::size_t>(OC::kLock)].samples, 2u);
    EXPECT_EQ(s.classes[static_cast<std::size_t>(OC::kLock)].regret, 400u);
    EXPECT_EQ(s.classes[static_cast<std::size_t>(OC::kBarrier)].samples,
              1u);
    EXPECT_EQ(s.classes[static_cast<std::size_t>(OC::kBarrier)].regret, 0u);
    audit::reset();
}

TEST(AuditRecordTest, TableOverflowFoldsIntoExactClassTotals)
{
    audit::reset();
    // 200 more distinct objects than the table holds: per-object
    // resolution saturates at kTableSize, the class account stays exact.
    const auto total =
        static_cast<std::uint32_t>(audit::detail::kTableSize + 200);
    for (std::uint32_t obj = 1; obj <= total; ++obj)
        audit::record(OC::kRwLock, obj, 10, 4);
    const audit::Snapshot s = audit::snapshot();
    EXPECT_EQ(s.objects.size(), audit::detail::kTableSize);
    const auto& row = s.classes[static_cast<std::size_t>(OC::kRwLock)];
    EXPECT_EQ(row.samples, total);
    EXPECT_EQ(row.realized, static_cast<std::uint64_t>(total) * 10);
    EXPECT_EQ(row.best, static_cast<std::uint64_t>(total) * 4);
    EXPECT_EQ(row.regret, static_cast<std::uint64_t>(total) * 6);
    EXPECT_EQ(row.overflow_objects, 200u);
    audit::reset();
}

// ---- best_alternative dispatch ----------------------------------------

struct FakeEstimator {
    double tts = 0, queue = 0;
    double tts_latency() const { return tts; }
    double queue_latency() const { return queue; }
};
struct EstimatorSelect {
    FakeEstimator est;
    const FakeEstimator& estimator() const { return est; }
};
struct LadderSelect {
    double lat[3] = {900, 250, 400};
    bool meas[3] = {false, true, true};
    double latency(std::uint32_t i) const { return lat[i]; }
    bool measured(std::uint32_t i) const { return meas[i]; }
};
struct OpaqueSelect {};

TEST(BestAlternativeTest, EstimatorPairTakesCheaperEwma)
{
    EstimatorSelect s;
    s.est = {320.5, 118.9};
    const auto v = audit::best_alternative(s, 2);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 118u);
}

TEST(BestAlternativeTest, LadderSkipsUnmeasuredRungs)
{
    LadderSelect s;
    const auto v = audit::best_alternative(s, 3);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 250u) << "rung 0 is unmeasured; min over measured only";

    LadderSelect none;
    none.meas[1] = none.meas[2] = false;
    EXPECT_FALSE(audit::best_alternative(none, 3).has_value())
        << "no measured rung, no counterfactual";
}

TEST(BestAlternativeTest, EstimateFreePolicyYieldsNoSample)
{
    EXPECT_FALSE(audit::best_alternative(OpaqueSelect{}, 2).has_value());
}

// ---- integration: calibrated run feeds the meter ----------------------

using CalLockSim = ReactiveNodeLock<SimPlatform, CalibratedCompetitive3Policy>;

TEST(AuditIntegrationTest, CalibratedRunMatchesMeterAndEventPayloads)
{
    audit::reset();
    trace::reset();
    trace::set_enabled(true);
    CalibratedCompetitive3Policy::Params pp;
    pp.costs = CostEstimator::Params::mis_tuned_eager();
    auto lock = std::make_shared<CalLockSim>(ReactiveLockParams{},
                                             CalibratedCompetitive3Policy(pp));
    apps::run_lock_cycle<CalLockSim>(8, 300, /*cs=*/50, /*think=*/400,
                                     /*seed=*/1, lock);
    trace::set_enabled(false);

    const audit::Snapshot s = reactive::audit_snapshot();
    const auto& row = s.classes[static_cast<std::size_t>(OC::kLock)];
    // The calibrated policy's estimator must reach the audit hook; zero
    // samples here means the meter went silently inert.
    EXPECT_GT(row.samples, 0u);
    EXPECT_GT(row.realized, 0u);
    EXPECT_GE(row.realized, row.regret);

    const trace::Capture cap = trace::capture();
    // The metric shard counts every emit even when the ring drops, so
    // it must agree exactly with the audit account (one emit per
    // record() by construction of the hook sites).
    EXPECT_EQ(cap.metrics.counter(OC::kLock, trace::Metric::kRegretSamples),
              row.samples);
    std::uint64_t seen = 0;
    for (const trace::CapturedEvent& ce : cap.events) {
        if (ce.e.type != trace::EventType::kRegret)
            continue;
        ++seen;
        EXPECT_EQ(ce.e.cls, OC::kLock);
        const std::uint64_t expect =
            ce.e.a0 > ce.e.a1 ? ce.e.a0 - ce.e.a1 : 0;
        EXPECT_EQ(ce.e.a2, expect) << "payload: regret = clamp diff";
    }
    EXPECT_GT(seen, 0u);
    EXPECT_LE(seen, row.samples) << "ring may drop, meter may not";
    trace::reset();
    audit::reset();
}

// ---- zero-overhead guarantee ------------------------------------------

std::uint64_t streamed_run(bool audit_on)
{
    audit::reset();
    trace::reset();
    trace::set_enabled(audit_on);
    const audit::EpisodeStream stream = audit::phase_shift_stream(8);
    const std::uint64_t elapsed = audit::run_stream<CalLockSim>(
        8, stream, /*seed=*/3, std::make_shared<CalLockSim>());
    trace::set_enabled(false);
    return elapsed;
}

TEST(AuditOverheadTest, MeterOffIsByteIdenticalSchedule)
{
    // The meter reuses cost samples the consensus path already took and
    // writes host memory only: the simulated schedule cannot see it.
    const std::uint64_t off = streamed_run(false);
    const std::uint64_t on = streamed_run(true);
    EXPECT_EQ(off, on);
    // And the enabled run really took samples (the comparison is not
    // vacuous).
    EXPECT_GT(streamed_run(true), 0u);
    const audit::Snapshot s = audit::snapshot();
    EXPECT_GT(s.total_samples(), 0u);
    audit::reset();
    trace::reset();
}

using LadderBarrierSim = ReactiveBarrier<SimPlatform, CalibratedLadderPolicy>;

std::uint64_t barrier_run(bool audit_on, sim::MachineStats* stats)
{
    audit::reset();
    trace::reset();
    trace::set_enabled(audit_on);
    CalibratedLadderPolicy::Params pp;
    pp.probe_period = 8;
    pp.probe_len = 2;
    auto bar = std::make_shared<LadderBarrierSim>(
        16, ReactiveBarrierParams{}, CalibratedLadderPolicy(pp));
    const std::uint64_t elapsed = apps::run_barrier_uniform<LadderBarrierSim>(
        16, 150, /*compute=*/100, /*seed=*/1, bar, {}, stats);
    trace::set_enabled(false);
    return elapsed;
}

TEST(AuditOverheadTest, BarrierMeterPerturbsNeitherScheduleNorTraffic)
{
    sim::MachineStats off{}, on{};
    const std::uint64_t elapsed_off = barrier_run(false, &off);
    const std::uint64_t elapsed_on = barrier_run(true, &on);
    EXPECT_EQ(elapsed_off, elapsed_on);
    EXPECT_EQ(off.mem_ops, on.mem_ops);
    EXPECT_EQ(off.remote_misses, on.remote_misses);
    EXPECT_EQ(off.invalidations, on.invalidations);
    EXPECT_EQ(off.messages, on.messages);
    audit::reset();
    trace::reset();
}

// ---- oracle replay determinism ----------------------------------------

using TtsSim = TtsLock<SimPlatform>;
using McsSim = McsLock<SimPlatform, McsVariant::kFetchStore>;

TEST(OracleTest, StreamGeneratorsAreSeedDeterministic)
{
    const audit::EpisodeStream a = audit::bursty_stream(24, 42);
    const audit::EpisodeStream b = audit::bursty_stream(24, 42);
    ASSERT_EQ(a.size(), b.size());
    bool any_hot = false, any_sparse = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].iters, b[i].iters);
        EXPECT_EQ(a[i].cs, b[i].cs);
        EXPECT_EQ(a[i].think, b[i].think);
        any_hot |= a[i].think == 0;
        any_sparse |= a[i].think > 0;
    }
    EXPECT_TRUE(any_hot && any_sparse) << "bursty must actually mix";
    const audit::EpisodeStream c = audit::bursty_stream(24, 43);
    bool differs = false;
    for (std::size_t i = 0; i < c.size(); ++i)
        differs |= c[i].think != a[i].think;
    EXPECT_TRUE(differs) << "different seed, different burst pattern";
}

TEST(OracleTest, ReplayCostsAreBitIdenticalAcrossRuns)
{
    const audit::EpisodeStream stream = audit::bursty_stream(10, 7);
    for (std::uint32_t p : {2u, 8u}) {
        EXPECT_EQ(audit::static_stream_cost<TtsSim>(p, stream, 7),
                  audit::static_stream_cost<TtsSim>(p, stream, 7));
        EXPECT_EQ(audit::static_stream_cost<McsSim>(p, stream, 7),
                  audit::static_stream_cost<McsSim>(p, stream, 7));
        EXPECT_EQ((audit::clairvoyant_cost<TtsSim, McsSim>(p, stream, 7)),
                  (audit::clairvoyant_cost<TtsSim, McsSim>(p, stream, 7)));
        EXPECT_EQ(audit::run_stream<CalLockSim>(
                      p, stream, 7, std::make_shared<CalLockSim>()),
                  audit::run_stream<CalLockSim>(
                      p, stream, 7, std::make_shared<CalLockSim>()));
    }
}

TEST(OracleTest, ClairvoyantIsMinOfItsProtocolPack)
{
    // With a one-protocol pack the clairvoyant degenerates to that
    // protocol's per-episode replay sum; the two-protocol pack can only
    // be cheaper or equal.
    const audit::EpisodeStream stream = audit::phase_shift_stream(6);
    const std::uint32_t p = 4;
    const std::uint64_t both =
        audit::clairvoyant_cost<TtsSim, McsSim>(p, stream, 5);
    EXPECT_LE(both, audit::clairvoyant_cost<TtsSim>(p, stream, 5));
    EXPECT_LE(both, audit::clairvoyant_cost<McsSim>(p, stream, 5));
}

TEST(OracleTest, EpisodeBoundariesAreRecordedMonotonically)
{
    const audit::EpisodeStream stream = audit::hot_stream(5, /*iters=*/10);
    std::vector<std::uint64_t> ends;
    const std::uint64_t elapsed = audit::run_stream<TtsSim>(
        4, stream, 9, std::make_shared<TtsSim>(), &ends);
    ASSERT_EQ(ends.size(), stream.size());
    for (std::size_t i = 1; i < ends.size(); ++i)
        EXPECT_GT(ends[i], ends[i - 1]);
    EXPECT_LE(ends.back(), elapsed);
}

// ---- native concurrent snapshot storm ---------------------------------

TEST(AuditStormTest, SnapshotNeverTearsWordsUnderConcurrentWriters)
{
    // Four writers, each the single writer of its own object (the
    // consensus discipline, emulated with distinct ids), against a
    // reader looping snapshot(). Per-word atomicity means every counter
    // a snapshot sees is a value some prefix of that writer's updates
    // produced: divisible by the per-sample increment, bounded by the
    // final total, and monotone across snapshots. Cross-counter tearing
    // (samples from one instant, cycles from another) is allowed and
    // documented. TSan (CI job) checks the memory model on top.
    audit::reset();
    constexpr std::uint64_t kSamples = 50000;
    constexpr std::uint32_t kWriters = 4;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> violations{0};

    std::thread reader([&] {
        std::array<std::uint64_t, kWriters + 1> last_samples{};
        while (!done.load(std::memory_order_acquire)) {
            const audit::Snapshot s = reactive::audit_snapshot();
            for (const audit::ObjectRegret& r : s.objects) {
                if (r.object > kWriters || r.cls != OC::kLock ||
                    r.samples > kSamples || r.realized % 7 != 0 ||
                    r.best % 3 != 0 || r.regret % 4 != 0 ||
                    r.realized > kSamples * 7 ||
                    r.samples < last_samples[r.object]) {
                    violations.fetch_add(1);
                } else {
                    last_samples[r.object] = r.samples;
                }
            }
        }
    });

    std::vector<std::thread> writers;
    for (std::uint32_t w = 1; w <= kWriters; ++w) {
        writers.emplace_back([w] {
            for (std::uint64_t i = 0; i < kSamples; ++i)
                audit::record(OC::kLock, w, 7, 3);
        });
    }
    for (auto& t : writers)
        t.join();
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(violations.load(), 0u);
    const audit::Snapshot s = audit::snapshot();
    ASSERT_EQ(s.objects.size(), kWriters);
    for (const audit::ObjectRegret& r : s.objects) {
        EXPECT_EQ(r.samples, kSamples);
        EXPECT_EQ(r.realized, kSamples * 7);
        EXPECT_EQ(r.best, kSamples * 3);
        EXPECT_EQ(r.regret, kSamples * 4);
    }
    audit::reset();
}

}  // namespace
