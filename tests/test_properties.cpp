// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// the core invariants checked across grids of processor counts, seeds,
// cost models, and algorithm parameters.
//
//  - mutual exclusion and completion for every lock protocol,
//  - fetch-and-increment linearizability (dense prior permutation),
//  - reactive consistency: protocol changes never lose or duplicate
//    operations,
//  - two-phase waiting cost bounds: measured waiting cost of a replayed
//    distribution never exceeds the competitive bound,
//  - determinism: same seed => same simulated elapsed time.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "core/cohort_queue.hpp"
#include "core/reactive_fetch_op.hpp"
#include "core/reactive_mutex.hpp"
#include "fetchop/combining_tree.hpp"
#include "fetchop/locked_fetch_op.hpp"
#include "locks/anderson_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/tas_lock.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/tts_lock.hpp"
#include "platform/prng.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"
#include "theory/waiting_cost.hpp"

namespace reactive {
namespace {

using sim::SimPlatform;

// ---- lock exclusion sweep ---------------------------------------------

enum class LockKind {
    kTas,
    kTts,
    kMcsFs,
    kMcsCas,
    kTicket,
    kAnderson,
    kReactiveAlways,
    kReactiveCompetitive,
    kReactiveHysteresis,
};

const char* lock_kind_name(LockKind k)
{
    switch (k) {
    case LockKind::kTas: return "tas";
    case LockKind::kTts: return "tts";
    case LockKind::kMcsFs: return "mcs_fs";
    case LockKind::kMcsCas: return "mcs_cas";
    case LockKind::kTicket: return "ticket";
    case LockKind::kAnderson: return "anderson";
    case LockKind::kReactiveAlways: return "reactive_always";
    case LockKind::kReactiveCompetitive: return "reactive_competitive";
    default: return "reactive_hysteresis";
    }
}

using LockSweepParam = std::tuple<LockKind, std::uint32_t, std::uint64_t>;

std::string lock_param_name(
    const ::testing::TestParamInfo<LockSweepParam>& info)
{
    return std::string(lock_kind_name(std::get<0>(info.param))) + "_p" +
           std::to_string(std::get<1>(info.param)) + "_s" +
           std::to_string(std::get<2>(info.param));
}

template <typename L>
void lock_exclusion_property(std::uint32_t procs, std::uint64_t seed,
                             std::shared_ptr<L> lock)
{
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto inside = std::make_shared<int>(0);
    auto violations = std::make_shared<int>(0);
    auto count = std::make_shared<long>(0);
    const std::uint32_t iters = 200 / procs + 10;
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t i = 0; i < iters; ++i) {
                typename L::Node node;
                lock->lock(node);
                if (++*inside != 1)
                    ++*violations;
                sim::delay(5 + sim::random_below(60));
                if (*inside != 1)
                    ++*violations;
                --*inside;
                ++*count;
                lock->unlock(node);
                sim::delay(sim::random_below(120));
            }
        });
    }
    m.run();
    EXPECT_EQ(*violations, 0);
    EXPECT_EQ(*count, static_cast<long>(procs) * iters);
}

class LockExclusionSweep : public ::testing::TestWithParam<LockSweepParam> {};

TEST_P(LockExclusionSweep, HoldsMutualExclusion)
{
    const auto [kind, procs, seed] = GetParam();
    switch (kind) {
    case LockKind::kTas:
        lock_exclusion_property(procs, seed,
                                std::make_shared<TasLock<SimPlatform>>());
        break;
    case LockKind::kTts:
        lock_exclusion_property(procs, seed,
                                std::make_shared<TtsLock<SimPlatform>>());
        break;
    case LockKind::kMcsFs:
        lock_exclusion_property(
            procs, seed,
            std::make_shared<McsLock<SimPlatform, McsVariant::kFetchStore>>());
        break;
    case LockKind::kMcsCas:
        lock_exclusion_property(
            procs, seed,
            std::make_shared<
                McsLock<SimPlatform, McsVariant::kCompareSwap>>());
        break;
    case LockKind::kTicket:
        lock_exclusion_property(procs, seed,
                                std::make_shared<TicketLock<SimPlatform>>());
        break;
    case LockKind::kAnderson:
        lock_exclusion_property(
            procs, seed, std::make_shared<AndersonLock<SimPlatform>>(procs));
        break;
    case LockKind::kReactiveAlways:
        lock_exclusion_property(
            procs, seed,
            std::make_shared<ReactiveNodeLock<SimPlatform>>());
        break;
    case LockKind::kReactiveCompetitive:
        lock_exclusion_property(
            procs, seed,
            std::make_shared<
                ReactiveNodeLock<SimPlatform, Competitive3Policy>>());
        break;
    case LockKind::kReactiveHysteresis:
        lock_exclusion_property(
            procs, seed,
            std::make_shared<ReactiveNodeLock<SimPlatform, HysteresisPolicy>>(
                ReactiveLockParams{}, HysteresisPolicy(4, 8)));
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLocks, LockExclusionSweep,
    ::testing::Combine(
        ::testing::Values(LockKind::kTas, LockKind::kTts, LockKind::kMcsFs,
                          LockKind::kMcsCas, LockKind::kTicket,
                          LockKind::kAnderson, LockKind::kReactiveAlways,
                          LockKind::kReactiveCompetitive,
                          LockKind::kReactiveHysteresis),
        ::testing::Values(2u, 5u, 16u), ::testing::Values(1ull, 42ull)),
    lock_param_name);

// ---- fetch-op linearizability sweep -------------------------------------

enum class FopKind { kTtsLock, kQueueLock, kTree, kReactive };

using FopSweepParam = std::tuple<FopKind, std::uint32_t, std::uint64_t>;

std::string fop_param_name(const ::testing::TestParamInfo<FopSweepParam>& info)
{
    static const char* names[] = {"ttslock", "queuelock", "tree", "reactive"};
    // Built by appends: GCC 12's -Wrestrict misfires on the
    // prepend-into-temporary of `"lit" + std::to_string(...)`.
    std::string s = names[static_cast<int>(std::get<0>(info.param))];
    s += "_p";
    s += std::to_string(std::get<1>(info.param));
    s += "_s";
    s += std::to_string(std::get<2>(info.param));
    return s;
}

template <typename F>
void fop_linearizability_property(std::uint32_t procs, std::uint64_t seed,
                                  std::shared_ptr<F> f)
{
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto priors = std::make_shared<std::vector<FetchOpValue>>();
    const std::uint32_t iters = 160 / procs + 8;
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename F::Node node;
            for (std::uint32_t i = 0; i < iters; ++i) {
                priors->push_back(f->fetch_add(node, 1));
                sim::delay(sim::random_below(150));
            }
        });
    }
    m.run();
    std::sort(priors->begin(), priors->end());
    for (std::size_t i = 0; i < priors->size(); ++i)
        ASSERT_EQ((*priors)[i], static_cast<FetchOpValue>(i));
    EXPECT_EQ(f->read(), static_cast<FetchOpValue>(procs) * iters);
}

class FetchOpLinearizabilitySweep
    : public ::testing::TestWithParam<FopSweepParam> {};

TEST_P(FetchOpLinearizabilitySweep, DensePriorPermutation)
{
    const auto [kind, procs, seed] = GetParam();
    switch (kind) {
    case FopKind::kTtsLock:
        fop_linearizability_property(
            procs, seed,
            std::make_shared<LockedFetchOp<SimPlatform, TtsLock<SimPlatform>>>());
        break;
    case FopKind::kQueueLock:
        fop_linearizability_property(
            procs, seed,
            std::make_shared<LockedFetchOp<
                SimPlatform, McsLock<SimPlatform, McsVariant::kFetchStore>>>());
        break;
    case FopKind::kTree:
        fop_linearizability_property(
            procs, seed, std::make_shared<CombiningFetchOp<SimPlatform>>(procs));
        break;
    case FopKind::kReactive: {
        ReactiveFetchOpParams params;
        params.queue_wait_limit = 600;  // force the full protocol ladder
        fop_linearizability_property(
            procs, seed,
            std::make_shared<ReactiveFetchOp<SimPlatform>>(procs, 0, params));
        break;
    }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFetchOps, FetchOpLinearizabilitySweep,
    ::testing::Combine(::testing::Values(FopKind::kTtsLock,
                                         FopKind::kQueueLock, FopKind::kTree,
                                         FopKind::kReactive),
                       ::testing::Values(2u, 8u, 24u),
                       ::testing::Values(3ull, 77ull)),
    fop_param_name);

// ---- cohort queue fairness sweep ----------------------------------------
//
// The cohort queue's explicit fairness bound (core/cohort_queue.hpp):
// once a remote waiter is enqueued in the global queue, at most B
// critical sections complete under the serving socket before the
// global lock is handed over — so with two sockets it acquires within
// B+1 lock grants of its global enqueue, including its own. The sweep
// drives an *adversarial all-local arrival stream* (the serving
// socket's waiters re-acquire with zero think time, so the local queue
// is never empty and only the budget can end a batch) against a lone
// remote waiter, across budgets and seeds, and checks the exact bound
// on the deterministic simulator (grants() and Node::enqueue_grants
// are exact there).

using CohortFairnessParam = std::tuple<std::uint32_t, std::uint64_t>;

class CohortFairnessSweep
    : public ::testing::TestWithParam<CohortFairnessParam> {};

TEST_P(CohortFairnessSweep, RemoteWaiterAcquiresWithinBPlusOneGrants)
{
    const auto [budget, seed] = GetParam();
    constexpr std::uint32_t kLocals = 4;       // socket 0
    constexpr std::uint32_t kProcs = kLocals + 1;  // remote on socket 1
    constexpr int kRemoteAcqs = 12;
    sim::Machine m(kProcs, sim::Topology{2, kLocals},
                   sim::CostModel::alewife(), seed);
    CohortQueue<SimPlatform>::Params cp;
    cp.sockets = 2;
    cp.cohort_limit = budget;
    auto q = std::make_shared<CohortQueue<SimPlatform>>(true, cp);
    auto done = std::make_shared<sim::Atomic<std::uint32_t>>(0);
    auto max_gap = std::make_shared<std::uint64_t>(0);
    auto remote_acqs = std::make_shared<int>(0);
    for (std::uint32_t p = 0; p < kLocals; ++p) {
        m.spawn(p, [=] {
            CohortQueue<SimPlatform>::Node n;
            // The starvation canary: the stream outlasts the remote
            // waiter unless the budget hands the lock across (the cap
            // only bounds a *failing* run so it terminates and fails
            // the assertions instead of wedging the suite).
            for (int i = 0; i < 100000 && done->load() == 0; ++i) {
                (void)q->acquire(n);
                sim::delay(40);
                q->release(n);
            }
        });
    }
    m.spawn(kLocals, [=] {
        for (int i = 0; i < kRemoteAcqs; ++i) {
            CohortQueue<SimPlatform>::Node n;
            (void)q->acquire(n);
            const std::uint64_t gap = q->grants() - n.enqueue_grants;
            if (gap > *max_gap)
                *max_gap = gap;
            ++*remote_acqs;
            sim::delay(40);
            q->release(n);
            sim::delay(500);
        }
        done->store(1);
    });
    m.run();
    EXPECT_EQ(*remote_acqs, kRemoteAcqs);
    EXPECT_LE(*max_gap, static_cast<std::uint64_t>(budget) + 1)
        << "B=" << budget << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsAndSeeds, CohortFairnessSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1ull, 7ull, 42ull, 1234ull)),
    [](const ::testing::TestParamInfo<CohortFairnessParam>& info) {
        std::string s = "B";
        s += std::to_string(std::get<0>(info.param));
        s += "_s";
        s += std::to_string(std::get<1>(info.param));
        return s;
    });

// ---- cohort queue auto-budget fairness sweep ----------------------------
//
// With auto_budget on, the per-socket batch budget floats between
// budget_min and budget_max — one step per cohort grant, driven by the
// local depth the releasing holder reads for free — and the fairness
// constant becomes (sockets - 1) x (budget_max + 1). The same
// adversarial all-local stream as above now faces the *worst* budget
// the resizer could legally reach, so the sweep checks the dynamic
// bound, not the static one.

class CohortAutoBudgetSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CohortAutoBudgetSweep, RemoteWaiterBoundedByBudgetMaxPlusOne)
{
    const std::uint64_t seed = GetParam();
    constexpr std::uint32_t kLocals = 4;       // socket 0
    constexpr std::uint32_t kProcs = kLocals + 1;  // remote on socket 1
    constexpr int kRemoteAcqs = 12;
    sim::Machine m(kProcs, sim::Topology{2, kLocals},
                   sim::CostModel::alewife(), seed);
    CohortQueue<SimPlatform>::Params cp;
    cp.sockets = 2;
    cp.auto_budget = true;
    cp.budget_min = 2;
    cp.budget_max = 6;
    auto q = std::make_shared<CohortQueue<SimPlatform>>(true, cp);
    auto done = std::make_shared<sim::Atomic<std::uint32_t>>(0);
    auto max_gap = std::make_shared<std::uint64_t>(0);
    auto remote_acqs = std::make_shared<int>(0);
    for (std::uint32_t p = 0; p < kLocals; ++p) {
        m.spawn(p, [=] {
            CohortQueue<SimPlatform>::Node n;
            for (int i = 0; i < 100000 && done->load() == 0; ++i) {
                (void)q->acquire(n);
                sim::delay(40);
                q->release(n);
            }
        });
    }
    m.spawn(kLocals, [=] {
        for (int i = 0; i < kRemoteAcqs; ++i) {
            CohortQueue<SimPlatform>::Node n;
            (void)q->acquire(n);
            const std::uint64_t gap = q->grants() - n.enqueue_grants;
            if (gap > *max_gap)
                *max_gap = gap;
            ++*remote_acqs;
            sim::delay(40);
            q->release(n);
            sim::delay(500);
        }
        done->store(1);
    });
    m.run();
    EXPECT_EQ(*remote_acqs, kRemoteAcqs);
    EXPECT_LE(*max_gap, static_cast<std::uint64_t>(cp.budget_max) + 1)
        << "budget_max=" << cp.budget_max << " seed=" << seed;
    // The resizer must have kept every socket's budget inside its
    // clamp (the invariant the bound's constant rests on).
    for (std::uint32_t s = 0; s < 2; ++s) {
        EXPECT_GE(q->socket_budget(s), cp.budget_min) << "socket " << s;
        EXPECT_LE(q->socket_budget(s), cp.budget_max) << "socket " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CohortAutoBudgetSweep,
    ::testing::Values(1ull, 7ull, 42ull, 1234ull),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
        std::string s = "s";
        s += std::to_string(info.param);
        return s;
    });

// ---- cohort queue exclusion / reactive-switch storms --------------------

TEST(CohortQueueProperties, MutualExclusionAcrossTopologies)
{
    for (const std::uint32_t sockets : {1u, 2u, 3u}) {
        for (const std::uint32_t procs : {4u, 9u}) {
            for (const std::uint64_t seed : {1ull, 42ull}) {
                sim::Machine m(procs, sim::Topology{sockets, 0},
                               sim::CostModel::alewife(), seed);
                CohortQueue<SimPlatform>::Params cp;
                cp.sockets = sockets;
                auto q = std::make_shared<CohortQueue<SimPlatform>>(true,
                                                                    cp);
                auto inside = std::make_shared<int>(0);
                auto violations = std::make_shared<int>(0);
                auto count = std::make_shared<long>(0);
                const std::uint32_t iters = 200 / procs + 10;
                for (std::uint32_t p = 0; p < procs; ++p) {
                    m.spawn(p, [=] {
                        for (std::uint32_t i = 0; i < iters; ++i) {
                            CohortQueue<SimPlatform>::Node node;
                            (void)q->acquire(node);
                            if (++*inside != 1)
                                ++*violations;
                            sim::delay(5 + sim::random_below(60));
                            if (*inside != 1)
                                ++*violations;
                            --*inside;
                            ++*count;
                            q->release(node);
                            sim::delay(sim::random_below(120));
                        }
                    });
                }
                m.run();
                EXPECT_EQ(*violations, 0)
                    << "S=" << sockets << " P=" << procs << " seed=" << seed;
                EXPECT_EQ(*count, static_cast<long>(procs) * iters);
            }
        }
    }
}

TEST(CohortQueueProperties, ReactiveSwitchStormOverCohortQueue)
{
    // Forced frequent protocol changes TTS <-> cohort queue: every
    // third observed acquisition switches, exercising
    // acquire_invalid/invalidate (the reactive consensus dialect) on
    // the two-level queue under a socketed machine.
    struct Metronome {
        std::uint32_t n = 0;
        std::uint32_t next_protocol(ProtocolSignal s)
        {
            return switch_if(s, ++n % 3 == 0);
        }
        void on_switch() {}
    };
    using RL = ReactiveNodeLock<SimPlatform, Metronome,
                                CohortQueue<SimPlatform>>;
    for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
        sim::Machine m(8, sim::Topology{2, 4}, sim::CostModel::alewife(),
                       seed);
        CohortQueue<SimPlatform>::Params cp;
        cp.sockets = 2;
        auto lock = std::make_shared<RL>(ReactiveLockParams{}, Metronome{},
                                         cp);
        auto inside = std::make_shared<int>(0);
        auto violations = std::make_shared<int>(0);
        auto count = std::make_shared<long>(0);
        for (std::uint32_t p = 0; p < 8; ++p) {
            m.spawn(p, [=] {
                for (int i = 0; i < 40; ++i) {
                    typename RL::Node node;
                    lock->lock(node);
                    if (++*inside != 1)
                        ++*violations;
                    sim::delay(30);
                    --*inside;
                    ++*count;
                    lock->unlock(node);
                    sim::delay(sim::random_below(150));
                }
            });
        }
        m.run();
        EXPECT_EQ(*violations, 0) << "seed " << seed;
        EXPECT_EQ(*count, 320);
        EXPECT_GT(lock->inner().protocol_changes(), 10u) << "seed " << seed;
    }
}

// ---- two-phase waiting bound sweep --------------------------------------

using WaitBoundParam = std::tuple<double, double>;  // alpha, mean/B

class TwoPhaseBoundSweep : public ::testing::TestWithParam<WaitBoundParam> {};

TEST_P(TwoPhaseBoundSweep, ReplayNeverExceedsWorstCaseBound)
{
    const auto [alpha, mean_over_b] = GetParam();
    theory::WaitCosts costs{500.0, 1.0};
    theory::ExponentialWait w{mean_over_b * costs.block_cost};
    const double replayed =
        theory::replay_two_phase(w, alpha, costs, 200000, 11);
    const double opt = theory::expected_optimal_cost(w, costs);
    const double bound = theory::worst_case_factor<theory::ExponentialWait>(
        alpha, costs);
    // Monte Carlo noise allowance of 3%.
    EXPECT_LE(replayed / opt, bound * 1.03)
        << "alpha " << alpha << " mean/B " << mean_over_b;
}

INSTANTIATE_TEST_SUITE_P(
    AlphaTimesMean, TwoPhaseBoundSweep,
    ::testing::Combine(::testing::Values(0.25, 0.5413, 1.0),
                       ::testing::Values(0.1, 0.5, 1.0, 3.0, 20.0)),
    [](const ::testing::TestParamInfo<WaitBoundParam>& info) {
        std::string s = "a";
        s += std::to_string(std::get<0>(info.param));
        s += "_m";
        s += std::to_string(std::get<1>(info.param));
        for (auto& c : s)
            if (c == '.')
                c = '_';
        return s;
    });

// ---- determinism sweep ----------------------------------------------------

class DeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSweep, SameSeedSameElapsed)
{
    const std::uint64_t seed = GetParam();
    auto experiment = [&] {
        sim::Machine m(12, sim::CostModel::alewife(), seed);
        auto lock = std::make_shared<ReactiveNodeLock<SimPlatform>>();
        for (std::uint32_t p = 0; p < 12; ++p) {
            m.spawn(p, [=] {
                for (int i = 0; i < 25; ++i) {
                    typename ReactiveNodeLock<SimPlatform>::Node n;
                    lock->lock(n);
                    sim::delay(50);
                    lock->unlock(n);
                    sim::delay(sim::random_below(200));
                }
            });
        }
        m.run();
        return m.elapsed();
    };
    EXPECT_EQ(experiment(), experiment());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep,
                         ::testing::Values(1ull, 7ull, 123ull, 9999ull));

}  // namespace
}  // namespace reactive
