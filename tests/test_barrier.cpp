// Correctness tests for the barrier subsystem (src/barrier/): episode
// ordering (nobody passes episode e before everyone arrived at e),
// sense reuse across many episodes with the same Nodes, protocol-switch
// correctness of the reactive barrier under forced-switch storms —
// including three-protocol storms cycling central -> tree ->
// dissemination through every episode — and the interop regression
// that keeps the spin barriers' episode semantics aligned with the
// waiting-algorithm barrier (src/waiting/sync/barrier.hpp) — on both
// the native platform (real threads) and the simulated multiprocessor.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "apps/workloads.hpp"
#include "barrier/barrier_concepts.hpp"
#include "barrier/central_barrier.hpp"
#include "barrier/combining_tree_barrier.hpp"
#include "barrier/dissemination_barrier.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/policy.hpp"
#include "core/protocol_set.hpp"
#include "platform/native_platform.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"
#include "waiting/sync/barrier.hpp"

namespace reactive {
namespace {

using sim::SimPlatform;

static_assert(Barrier<CentralBarrier<NativePlatform>>);
static_assert(Barrier<CombiningTreeBarrier<NativePlatform>>);
static_assert(Barrier<DisseminationBarrier<NativePlatform>>);
static_assert(Barrier<ReactiveBarrier<NativePlatform>>);
static_assert(Barrier<WaitingBarrier<NativePlatform>>);
static_assert(Barrier<CentralBarrier<SimPlatform>>);
static_assert(Barrier<CombiningTreeBarrier<SimPlatform>>);
static_assert(Barrier<DisseminationBarrier<SimPlatform>>);
static_assert(Barrier<ReactiveBarrier<SimPlatform>>);
static_assert(Barrier<WaitingBarrier<SimPlatform>>);

// Every barrier protocol is a ProtocolSet slot; the waiting barrier is
// deliberately not (it has no decomposed consensus interface).
static_assert(BarrierProtocolSlot<CentralBarrier<SimPlatform>>);
static_assert(BarrierProtocolSlot<CombiningTreeBarrier<SimPlatform>>);
static_assert(BarrierProtocolSlot<DisseminationBarrier<SimPlatform>>);
static_assert(BarrierProtocolSlot<CentralBarrier<NativePlatform>>);
static_assert(BarrierProtocolSlot<CombiningTreeBarrier<NativePlatform>>);
static_assert(BarrierProtocolSlot<DisseminationBarrier<NativePlatform>>);
static_assert(!BarrierProtocolSlot<WaitingBarrier<SimPlatform>>);

/// The acceptance instantiation: a reactive barrier over the full
/// three-protocol set.
template <typename Plat>
using Barrier3Set = ProtocolSet<CentralBarrier<Plat>,
                                CombiningTreeBarrier<Plat>,
                                DisseminationBarrier<Plat>>;

/// LadderCompetitivePolicy sized for the three-protocol set, with a
/// round trip small enough that the short torture runs actually climb
/// and descend the ladder.
struct Ladder3Policy : LadderCompetitivePolicy {
    Ladder3Policy()
        : LadderCompetitivePolicy({/*protocols=*/3, /*residual_up=*/150,
                                   /*residual_down=*/150,
                                   /*switch_round_trip=*/1500})
    {
    }
};

/// Test-only policy that demands a protocol change every @p k episodes
/// in either protocol: maximizes switch frequency so both switch
/// directions run constantly under load.
class MetronomePolicy {
  public:
    explicit MetronomePolicy(std::uint32_t k = 3) : k_(k) {}
    std::uint32_t next_protocol(ProtocolSignal s)
    {
        return switch_if(s, ++n_ % k_ == 0);
    }
    void on_switch() {}

  private:
    std::uint32_t k_;
    std::uint32_t n_ = 0;
};
static_assert(SelectPolicy<MetronomePolicy>);

/// Test-only N-protocol policy that walks the set every @p k episodes
/// (step +1 cycles up: central -> tree -> dissemination -> central;
/// step -1 cycles down, covering the opposite switch directions).
class CycleSelectPolicy {
  public:
    explicit CycleSelectPolicy(std::uint32_t protocols = 3,
                               std::uint32_t k = 3, int step = +1)
        : protocols_(protocols), k_(k), step_(step)
    {
    }

    std::uint32_t next_protocol(ProtocolSignal s)
    {
        if (++n_ % k_ != 0)
            return s.protocol;
        const auto delta = static_cast<std::uint32_t>(
            static_cast<int>(protocols_) + step_);
        return (s.protocol + delta) % protocols_;
    }

    void on_switch() {}

  private:
    std::uint32_t protocols_;
    std::uint32_t k_;
    int step_;
    std::uint64_t n_ = 0;
};
static_assert(SelectPolicy<CycleSelectPolicy>);

// ---- simulated-machine episode-ordering tests -------------------------

/**
 * The fundamental barrier property, checked per episode per process:
 * right after passing barrier episode e, every other participant must
 * have finished its episode-e work (progress >= e+1) and cannot have
 * passed the *next* barrier (progress <= e+2).
 */
template <typename B>
int sim_barrier_torture(std::shared_ptr<B> bar, std::uint32_t procs,
                        std::uint32_t episodes, std::uint32_t compute,
                        std::uint64_t seed = 1, std::uint32_t straggle = 0,
                        sim::Topology topo = {})
{
    sim::Machine m(procs, topo, sim::CostModel::alewife(), seed);
    auto progress = std::make_shared<std::vector<std::uint32_t>>(procs, 0u);
    auto nodes = std::make_shared<std::vector<typename B::Node>>(procs);
    auto violations = std::make_shared<int>(0);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename B::Node& n = (*nodes)[p];
            for (std::uint32_t e = 0; e < episodes; ++e) {
                sim::delay(sim::random_below(compute + 1));
                if (straggle > 0 && e % procs == p)
                    sim::delay(straggle);
                (*progress)[p] = e + 1;
                bar->arrive(n);
                for (std::uint32_t j = 0; j < procs; ++j) {
                    const std::uint32_t seen = (*progress)[j];
                    if (seen < e + 1 || seen > e + 2)
                        ++*violations;
                }
            }
        });
    }
    m.run();
    return *violations;
}

template <typename B>
class SimBarrierTest : public ::testing::Test {};

using SimBarrierTypes =
    ::testing::Types<CentralBarrier<SimPlatform>,
                     CombiningTreeBarrier<SimPlatform>,
                     DisseminationBarrier<SimPlatform>,
                     ReactiveBarrier<SimPlatform>,
                     ReactiveBarrier<SimPlatform, Competitive3Policy>,
                     ReactiveBarrier<SimPlatform, HysteresisPolicy>,
                     ReactiveBarrier<SimPlatform, MetronomePolicy>,
                     ReactiveBarrier<SimPlatform, CycleSelectPolicy,
                                     Barrier3Set<SimPlatform>>,
                     ReactiveBarrier<SimPlatform, Ladder3Policy,
                                     Barrier3Set<SimPlatform>>,
                     WaitingBarrier<SimPlatform>>;
TYPED_TEST_SUITE(SimBarrierTest, SimBarrierTypes);

TYPED_TEST(SimBarrierTest, EpisodeOrderingBunchedArrivals)
{
    auto bar = std::make_shared<TypeParam>(16);
    EXPECT_EQ(sim_barrier_torture(bar, 16, 40, /*compute=*/120), 0);
}

TYPED_TEST(SimBarrierTest, EpisodeOrderingSkewedArrivals)
{
    auto bar = std::make_shared<TypeParam>(8);
    EXPECT_EQ(sim_barrier_torture(bar, 8, 30, /*compute=*/100, /*seed=*/3,
                                  /*straggle=*/20000),
              0);
}

TYPED_TEST(SimBarrierTest, SenseReuseOverManyEpisodesManySeeds)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto bar = std::make_shared<TypeParam>(12);
        EXPECT_EQ(sim_barrier_torture(bar, 12, 60, /*compute=*/60, seed), 0)
            << "seed " << seed;
    }
}

TYPED_TEST(SimBarrierTest, SingleParticipantPassesThrough)
{
    auto bar = std::make_shared<TypeParam>(1);
    EXPECT_EQ(sim_barrier_torture(bar, 1, 200, /*compute=*/0), 0);
}

// Non-power-of-two participant counts and odd fan-ins exercise the
// partial leaf/interior nodes of the tree.
TEST(CombiningTreeShapeTest, OddFanInsAndParticipantCounts)
{
    for (const std::uint32_t fan : {2u, 3u, 5u, 8u}) {
        for (const std::uint32_t procs : {2u, 5u, 13u, 16u}) {
            auto bar = std::make_shared<CombiningTreeBarrier<SimPlatform>>(
                procs, fan);
            EXPECT_EQ(sim_barrier_torture(bar, procs, 25, /*compute=*/80),
                      0)
                << "fan " << fan << " procs " << procs;
        }
    }
}

// ---- topology-aware placement (NUMA) ----------------------------------

TEST(TopoBarrierTest, TopologyAwareTreeOrderingOddSocketSplits)
{
    // Non-power-of-two socket splits, odd participant counts, socket
    // ranges that do not divide the fan-in: the segment construction
    // must still produce a correct episode structure.
    struct Shape {
        std::uint32_t procs, sockets, cps, fan;
    };
    for (const Shape c : {Shape{13, 3, 5, 4}, Shape{9, 3, 3, 2},
                          Shape{12, 5, 3, 4}, Shape{7, 2, 4, 3},
                          Shape{11, 4, 0, 5}}) {
        for (const std::uint64_t seed : {1ull, 42ull}) {
            auto bar = std::make_shared<CombiningTreeBarrier<SimPlatform>>(
                c.procs, c.fan, false, c.sockets, c.cps);
            EXPECT_EQ(sim_barrier_torture(bar, c.procs, 25, /*compute=*/120,
                                          seed, /*straggle=*/0,
                                          sim::Topology{c.sockets, c.cps}),
                      0)
                << "P=" << c.procs << " S=" << c.sockets << " cps=" << c.cps
                << " fan=" << c.fan << " seed=" << seed;
        }
    }
}

TEST(TopoBarrierTest, ForcedSwitchStormsAcrossThreeProtocolsWithTopology)
{
    // Cycle storms in both directions over a socketed machine with the
    // topology-aware tree slot, odd P and a non-power-of-two split —
    // every protocol change runs while all waiters are parked in the
    // slot being left.
    using B = ReactiveBarrier<SimPlatform, CycleSelectPolicy,
                              Barrier3Set<SimPlatform>>;
    for (const int step : {+1, -1}) {
        ReactiveBarrierParams bp;
        bp.sockets = 3;
        bp.cores_per_socket = 5;
        auto bar = std::make_shared<B>(13, bp, CycleSelectPolicy(3, 2, step));
        EXPECT_EQ(sim_barrier_torture(bar, 13, 40, /*compute=*/100,
                                      /*seed=*/1, /*straggle=*/0,
                                      sim::Topology{3, 5}),
                  0)
            << "step " << step;
        EXPECT_EQ(bar->protocol_changes(), 40u / 2u) << "step " << step;
    }
    // The same storm with stragglers and a ragged last socket.
    ReactiveBarrierParams bp;
    bp.sockets = 2;
    bp.cores_per_socket = 4;
    auto bar = std::make_shared<B>(7, bp, CycleSelectPolicy(3, 3, +1));
    EXPECT_EQ(sim_barrier_torture(bar, 7, 30, /*compute=*/100, /*seed=*/3,
                                  /*straggle=*/4000, sim::Topology{2, 4}),
              0);
}

TEST(TopoBarrierTest, TopologyAwareTreeStormOnNativeThreads)
{
    // Real threads with declared sockets (NativePlatform's
    // TopologyAware extension): placement uses the declared ids, the
    // ordering property must hold regardless.
    const std::uint32_t hw = std::thread::hardware_concurrency();
    const std::uint32_t threads = std::max(3u, std::min(6u, hw));
    CombiningTreeBarrier<NativePlatform> bar(threads, /*fan_in=*/2,
                                             /*track=*/false,
                                             /*sockets=*/3);
    std::vector<std::atomic<std::uint32_t>> progress(threads);
    for (auto& a : progress)
        a.store(0, std::memory_order_relaxed);
    std::atomic<int> violations{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            NativePlatform::set_current_socket(t % 3);
            typename CombiningTreeBarrier<NativePlatform>::Node n;
            for (std::uint32_t e = 0; e < 200; ++e) {
                progress[t].store(e + 1, std::memory_order_relaxed);
                bar.arrive(n);
                for (std::uint32_t j = 0; j < threads; ++j) {
                    const std::uint32_t seen =
                        progress[j].load(std::memory_order_relaxed);
                    if (seen < e + 1 || seen > e + 2)
                        violations.fetch_add(1);
                }
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(violations.load(), 0);
}

TEST(TopoBarrierDeathTest, OversubscriptionStillAbortsWithTopology)
{
    // A (P+1)-th Node must abort instead of wrapping into a duplicate
    // id, exactly as on the flat path — including when the spill scan
    // has walked every socket range.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            CombiningTreeBarrier<NativePlatform> bar(3, /*fan_in=*/2,
                                                     /*track=*/false,
                                                     /*sockets=*/2);
            CombiningTreeBarrier<NativePlatform>::Node nodes[4];
            // Three legitimate participants would deadlock a real
            // episode here, so drive id assignment via arrive_only.
            for (auto& n : nodes)
                (void)bar.arrive_only(n);
        },
        "");
}

// ---- native-thread episode-ordering tests -----------------------------

template <typename B>
int native_barrier_torture(B& bar, std::uint32_t threads,
                           std::uint32_t episodes)
{
    std::vector<std::atomic<std::uint32_t>> progress(threads);
    for (auto& a : progress)
        a.store(0, std::memory_order_relaxed);
    std::atomic<int> violations{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            typename B::Node n;
            for (std::uint32_t e = 0; e < episodes; ++e) {
                progress[t].store(e + 1, std::memory_order_relaxed);
                bar.arrive(n);
                for (std::uint32_t j = 0; j < threads; ++j) {
                    const std::uint32_t seen =
                        progress[j].load(std::memory_order_relaxed);
                    if (seen < e + 1 || seen > e + 2)
                        violations.fetch_add(1);
                }
            }
        });
    }
    for (auto& th : pool)
        th.join();
    return violations.load();
}

template <typename B>
class NativeBarrierTest : public ::testing::Test {};

using NativeBarrierTypes =
    ::testing::Types<CentralBarrier<NativePlatform>,
                     CombiningTreeBarrier<NativePlatform>,
                     DisseminationBarrier<NativePlatform>,
                     ReactiveBarrier<NativePlatform>,
                     ReactiveBarrier<NativePlatform, Competitive3Policy>,
                     ReactiveBarrier<NativePlatform, HysteresisPolicy>,
                     ReactiveBarrier<NativePlatform, MetronomePolicy>,
                     ReactiveBarrier<NativePlatform, CycleSelectPolicy,
                                     Barrier3Set<NativePlatform>>>;
TYPED_TEST_SUITE(NativeBarrierTest, NativeBarrierTypes);

TYPED_TEST(NativeBarrierTest, EpisodeOrderingUnderThreads)
{
    const std::uint32_t hw =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    TypeParam bar(hw);
    EXPECT_EQ(native_barrier_torture(bar, hw, 200), 0);
}

TYPED_TEST(NativeBarrierTest, SingleParticipantManyEpisodes)
{
    TypeParam bar(1);
    typename TypeParam::Node n;
    for (int i = 0; i < 1000; ++i)
        bar.arrive(n);
    SUCCEED();
}

// ---- reactive barrier: protocol-switch correctness --------------------

/// The thesis-style arrival-spread signal path, now opt-in
/// (free_monitoring defaults on since the NUMA PR); the convergence
/// tests below were written against it and keep validating it through
/// its deprecation window.
ReactiveBarrierParams spread_signal_params()
{
    ReactiveBarrierParams p;
    p.free_monitoring = false;
    return p;
}

TEST(ReactiveBarrierSwitchTest, ConvergesToTreeUnderBunchedArrivals)
{
    using B = ReactiveBarrier<SimPlatform, AlwaysSwitchPolicy>;
    // A huge empty-streak threshold pins the barrier in tree mode once
    // it gets there (mirrors the rwlock convergence test).
    auto bar = std::make_shared<B>(32, spread_signal_params(),
                                   AlwaysSwitchPolicy(1u << 30));
    EXPECT_EQ(bar->mode(), B::Mode::kCentral);
    (void)apps::run_barrier_uniform<B>(32, 30, /*compute=*/100, /*seed=*/1,
                                       bar);
    EXPECT_GT(bar->protocol_changes(), 0u);
    EXPECT_EQ(bar->mode(), B::Mode::kTree);
}

TEST(ReactiveBarrierSwitchTest, ConvergesBackToCentralWhenSkewed)
{
    // One run, two regimes (a barrier's Nodes are bound to it for life,
    // so regime changes must happen inside one machine): a bunched
    // phase drives the protocol into the tree, then the straggler
    // phase's skew streak must bring it back to the centralized
    // barrier.
    using B = ReactiveBarrier<SimPlatform, AlwaysSwitchPolicy>;
    auto bar = std::make_shared<B>(8, spread_signal_params());
    (void)apps::run_barrier_phases<B>(8, /*phases=*/2,
                                      /*episodes_per_phase=*/25,
                                      /*straggle=*/40000, /*compute=*/80,
                                      /*seed=*/1, bar);
    EXPECT_EQ(bar->mode(), B::Mode::kCentral);
    EXPECT_GE(bar->protocol_changes(), 2u);
}

TEST(ReactiveBarrierSwitchTest, ForcedSwitchStormKeepsOrdering)
{
    // MetronomePolicy(2) forces a protocol change every 2nd episode:
    // every other release performs a switch while all waiters are
    // parked in the protocol being retired. Episode ordering must
    // survive every one of them, in both directions, at several seeds.
    using B = ReactiveBarrier<SimPlatform, MetronomePolicy>;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto bar = std::make_shared<B>(12, ReactiveBarrierParams{},
                                       MetronomePolicy(2));
        EXPECT_EQ(sim_barrier_torture(bar, 12, 40, /*compute=*/100, seed),
                  0)
            << "seed " << seed;
        // One consensus step per episode, one switch per 2 episodes.
        EXPECT_EQ(bar->protocol_changes(), 40u / 2u) << "seed " << seed;
    }
}

TEST(ReactiveBarrierSwitchTest, ForcedSwitchStormOnNativeThreads)
{
    // Every single release switches protocols (MetronomePolicy(1)) on
    // real threads: central -> tree -> central -> ... for the whole
    // run. This is the storm the TSan CI job replays.
    using B = ReactiveBarrier<NativePlatform, MetronomePolicy>;
    const std::uint32_t hw =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    B bar(hw, ReactiveBarrierParams{}, MetronomePolicy(1));
    EXPECT_EQ(native_barrier_torture(bar, hw, 300), 0);
    EXPECT_EQ(bar.protocol_changes(), 300u);
}

// ---- three-protocol switching (ProtocolSet<central, tree, dissem>) ----

TEST(ProtocolSetTest, DispatchClampsOutOfRangeIndexToLastSlot)
{
    // dispatch() must never silently drop an operation: in release
    // builds an index past the set clamps to the last slot (the same
    // clamp the consensus side applies to policy-requested indices),
    // so a dropped barrier arrival cannot deadlock an episode. Debug
    // builds assert instead, so only the in-range half runs there.
    Barrier3Set<NativePlatform> set(1, BarrierSlotOptions{});
    int hit = -1;
    const auto record = [&](auto&, auto idx) {
        hit = static_cast<int>(idx());
    };
    set.dispatch(1, record);
    EXPECT_EQ(hit, 1);
    set.dispatch(2, record);
    EXPECT_EQ(hit, 2);
#ifdef NDEBUG
    set.dispatch(3, record);
    EXPECT_EQ(hit, 2);
    set.dispatch(0xffffffffu, record);
    EXPECT_EQ(hit, 2);
#endif
}

TEST(ReactiveBarrier3Test, CycleStormKeepsOrderingBothDirections)
{
    // A protocol change every single episode, walking the full ladder:
    // up-cycle covers central->tree, tree->dissemination,
    // dissemination->central; down-cycle covers the other three
    // directions. Episode ordering must survive every switch, at
    // several seeds.
    using B = ReactiveBarrier<SimPlatform, CycleSelectPolicy,
                              Barrier3Set<SimPlatform>>;
    for (const int step : {+1, -1}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            auto bar = std::make_shared<B>(
                12, ReactiveBarrierParams{},
                CycleSelectPolicy(/*protocols=*/3, /*k=*/1, step));
            EXPECT_EQ(sim_barrier_torture(bar, 12, 42, /*compute=*/100,
                                          seed),
                      0)
                << "step " << step << " seed " << seed;
            // One consensus step per episode, one switch per episode.
            EXPECT_EQ(bar->protocol_changes(), 42u)
                << "step " << step << " seed " << seed;
        }
    }
}

TEST(ReactiveBarrier3Test, CycleStormSurvivesStragglersAndOddCounts)
{
    // Non-power-of-two participants exercise the dissemination round
    // arithmetic and partial tree nodes while the set cycles.
    using B = ReactiveBarrier<SimPlatform, CycleSelectPolicy,
                              Barrier3Set<SimPlatform>>;
    for (const std::uint32_t procs : {2u, 5u, 13u}) {
        auto bar = std::make_shared<B>(
            procs, ReactiveBarrierParams{},
            CycleSelectPolicy(/*protocols=*/3, /*k=*/2, +1));
        EXPECT_EQ(sim_barrier_torture(bar, procs, 36, /*compute=*/80,
                                      /*seed=*/5, /*straggle=*/15000),
                  0)
            << "procs " << procs;
    }
}

TEST(ReactiveBarrier3Test, CycleStormOnNativeThreads)
{
    // Every release switches to the next protocol of the 3-set on real
    // threads — the storm the TSan CI job replays for the full ladder.
    using B = ReactiveBarrier<NativePlatform, CycleSelectPolicy,
                              Barrier3Set<NativePlatform>>;
    const std::uint32_t hw =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    B bar(hw, ReactiveBarrierParams{},
          CycleSelectPolicy(/*protocols=*/3, /*k=*/1, +1));
    EXPECT_EQ(native_barrier_torture(bar, hw, 300), 0);
    EXPECT_EQ(bar.protocol_changes(), 300u);
}

TEST(ReactiveBarrier3Test, LadderClimbsUnderBunchedArrivals)
{
    // Bunched arrivals at P=32: the drift signal fires every episode in
    // central mode and keeps firing in tree mode (a more scalable rung
    // exists), so the plain ladder policy must climb off the bottom
    // rung and eventually reach the dissemination rung.
    using B = ReactiveBarrier<SimPlatform, Ladder3Policy,
                              Barrier3Set<SimPlatform>>;
    auto bar = std::make_shared<B>(32, spread_signal_params(),
                                   Ladder3Policy{});
    (void)apps::run_barrier_uniform<B>(32, 60, /*compute=*/100, /*seed=*/1,
                                       bar);
    EXPECT_GE(bar->protocol_changes(), 2u);
    EXPECT_EQ(bar->mode(), B::Mode::kDissemination);
}

TEST(ReactiveBarrier3Test, MeasuredPolicyReturnsToCentralWhenSkewed)
{
    // One run, two regimes, under traffic-free monitoring (the
    // recommended configuration for N >= 3 sets): a bunched phase (the
    // measured policy may adopt a scalable rung), then a long
    // straggler phase — the skewed drift evidence (completer-identity
    // streaks; the designated completer's own wait) must bring the
    // measured ladder policy back to the bottom rung, across two rungs
    // if needed.
    using B = ReactiveBarrier<SimPlatform, CalibratedLadderPolicy,
                              Barrier3Set<SimPlatform>>;
    CalibratedLadderPolicy::Params pp;
    pp.protocols = 3;
    pp.probe_period = 8;
    pp.drift_round_trip = 1500;
    ReactiveBarrierParams bp;
    bp.free_monitoring = true;
    auto bar = std::make_shared<B>(8, bp, CalibratedLadderPolicy(pp));
    (void)apps::run_barrier_phases<B>(8, /*phases=*/2,
                                      /*episodes_per_phase=*/60,
                                      /*straggle=*/40000, /*compute=*/80,
                                      /*seed=*/1, bar);
    EXPECT_EQ(bar->mode(), B::Mode::kCentral);
    EXPECT_GT(bar->protocol_changes(), 0u);
}

TEST(ReactiveBarrier3Test, FreeMonitoringCycleStormKeepsOrdering)
{
    // The cycle storm again with untracked slots (free monitoring):
    // switch correctness must not depend on the spread machinery.
    using B = ReactiveBarrier<SimPlatform, CycleSelectPolicy,
                              Barrier3Set<SimPlatform>>;
    ReactiveBarrierParams bp;
    bp.free_monitoring = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto bar = std::make_shared<B>(
            12, bp, CycleSelectPolicy(/*protocols=*/3, /*k=*/1, +1));
        EXPECT_EQ(sim_barrier_torture(bar, 12, 42, /*compute=*/100, seed),
                  0)
            << "seed " << seed;
        EXPECT_EQ(bar->protocol_changes(), 42u) << "seed " << seed;
    }
}

TEST(ReactiveBarrier3Test, ParkedFreeMonitoringBarrierAddsOnlyTheModeRead)
{
    // The free_monitoring default-flip regression (ROADMAP follow-on):
    // a reactive barrier parked in its initial protocol must execute
    // the static protocol's exact shared-memory operations — the only
    // extra access is the one mode-hint read each arrival's dispatch
    // performs, which free monitoring cannot remove and which existed
    // in every prior configuration too. The spread path, by contrast,
    // pays stamp traffic every episode.
    struct NeverPolicy {
        std::uint32_t next_protocol(ProtocolSignal s) { return s.protocol; }
        void on_switch() {}
    };
    using Parked = ReactiveBarrier<SimPlatform, NeverPolicy>;
    static constexpr std::uint32_t kEpisodes = 40;
    auto run = [](std::uint32_t procs, auto make_barrier) {
        sim::Machine m(procs, sim::CostModel::alewife(), 1);
        auto bar = make_barrier(procs);
        using B = typename decltype(bar)::element_type;
        auto nodes =
            std::make_shared<std::vector<typename B::Node>>(procs);
        for (std::uint32_t p = 0; p < procs; ++p) {
            m.spawn(p, [=] {
                for (std::uint32_t e = 0; e < kEpisodes; ++e) {
                    sim::delay(sim::random_below(200));
                    bar->arrive((*nodes)[p]);
                }
            });
        }
        m.run();
        return m.stats().mem_ops;
    };
    auto central = [](std::uint32_t procs) {
        return std::make_shared<CentralBarrier<SimPlatform>>(procs);
    };
    auto parked = [](std::uint32_t procs) {
        return std::make_shared<Parked>(procs);  // defaults: free monitoring
    };
    auto spread = [](std::uint32_t procs) {
        return std::make_shared<Parked>(procs, spread_signal_params());
    };
    // Spin-free configuration (one participant: nobody ever polls a
    // sense word, so the op count is schedule-independent): the parked
    // barrier executes *exactly* the static protocol's memory
    // operations plus the one mode-hint read per arrival — the
    // dispatch read free monitoring cannot remove and every prior
    // configuration also paid.
    EXPECT_EQ(run(1, parked), run(1, central) + kEpisodes);
    // Contended configuration: poll counts shift with scheduling, so
    // the per-op claim is bounded rather than exact — the parked
    // barrier stays within the mode reads plus poll noise of the
    // static protocol — while the spread path's stamp traffic (a CAS
    // per arrival plus the completer's reads) is well outside it.
    const std::uint64_t central_ops = run(12, central);
    const std::uint64_t parked_ops = run(12, parked);
    const std::uint64_t spread_ops = run(12, spread);
    const std::uint64_t mode_reads = 12u * kEpisodes;
    const std::uint64_t poll_noise = central_ops / 50;  // 2%
    EXPECT_LE(parked_ops, central_ops + mode_reads + poll_noise);
    EXPECT_GE(parked_ops + poll_noise, central_ops);
    EXPECT_GT(spread_ops, parked_ops + mode_reads);
}

TEST(ReactiveBarrierSwitchTest, PhaseShiftingTracksBothRegimes)
{
    // Across alternating bunched/straggler phases the reactive barrier
    // must keep switching (at least once per regime flip would be
    // ideal; we require that it reacts repeatedly, not just once).
    using B = ReactiveBarrier<SimPlatform, AlwaysSwitchPolicy>;
    auto bar = std::make_shared<B>(16, spread_signal_params());
    (void)apps::run_barrier_phases<B>(16, /*phases=*/6,
                                      /*episodes_per_phase=*/20,
                                      /*straggle=*/40000, /*compute=*/100,
                                      /*seed=*/1, bar);
    EXPECT_GE(bar->protocol_changes(), 4u);
}

// ---- interop regression: spin barriers vs the waiting barrier ---------
//
// src/waiting/sync/barrier.hpp predates this subsystem and implements
// the same sense-reversing episode semantics over a WaitQueue. These
// tests pin the shared contract — immediate reuse after the last
// arrival's reset, per-node sense reuse across episodes — by running
// the two families in lockstep: each processor alternates an arrival at
// the CentralBarrier with an arrival at the WaitingBarrier every
// episode. Any divergence in reset timing or sense handling deadlocks
// the lockstep (the simulator detects it) or breaks the ordering
// checks.

TEST(BarrierInteropTest, CentralAndWaitingAgreeInLockstep)
{
    constexpr std::uint32_t kProcs = 12;
    constexpr std::uint32_t kEpisodes = 30;
    sim::Machine m(kProcs, sim::CostModel::alewife(), 1);
    auto central = std::make_shared<CentralBarrier<SimPlatform>>(kProcs);
    auto waiting = std::make_shared<WaitingBarrier<SimPlatform>>(kProcs);
    auto cnodes = std::make_shared<
        std::vector<CentralBarrier<SimPlatform>::Node>>(kProcs);
    auto wnodes = std::make_shared<
        std::vector<WaitingBarrier<SimPlatform>::Node>>(kProcs);
    auto progress =
        std::make_shared<std::vector<std::uint32_t>>(kProcs, 0u);
    auto violations = std::make_shared<int>(0);
    for (std::uint32_t p = 0; p < kProcs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t e = 0; e < kEpisodes; ++e) {
                sim::delay(sim::random_below(120));
                (*progress)[p] = 2 * e + 1;
                central->arrive((*cnodes)[p]);
                for (std::uint32_t j = 0; j < kProcs; ++j)
                    if ((*progress)[j] < 2 * e + 1 ||
                        (*progress)[j] > 2 * e + 3)
                        ++*violations;
                sim::delay(sim::random_below(120));
                (*progress)[p] = 2 * e + 2;
                waiting->arrive((*wnodes)[p]);
                for (std::uint32_t j = 0; j < kProcs; ++j)
                    if ((*progress)[j] < 2 * e + 2 ||
                        (*progress)[j] > 2 * e + 4)
                        ++*violations;
            }
        });
    }
    m.run();
    EXPECT_EQ(*violations, 0);
}

TEST(BarrierInteropTest, ImmediateReuseAfterLastArrivalReset)
{
    // Both families must be re-arrivable the instant arrive() returns:
    // the last arrival resets the counter *before* releasing, so a
    // ping-pong of back-to-back episodes with zero think time cannot
    // deadlock or skip an episode. (This is the semantics PR 1's
    // WaitingBarrier established; CentralBarrier must not diverge.)
    constexpr std::uint32_t kProcs = 4;
    constexpr std::uint32_t kEpisodes = 200;
    sim::Machine m(kProcs, sim::CostModel::alewife(), 2);
    auto central = std::make_shared<CentralBarrier<SimPlatform>>(kProcs);
    auto waiting = std::make_shared<WaitingBarrier<SimPlatform>>(kProcs);
    auto cnodes = std::make_shared<
        std::vector<CentralBarrier<SimPlatform>::Node>>(kProcs);
    auto wnodes = std::make_shared<
        std::vector<WaitingBarrier<SimPlatform>::Node>>(kProcs);
    auto done = std::make_shared<std::vector<std::uint32_t>>(kProcs, 0u);
    for (std::uint32_t p = 0; p < kProcs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t e = 0; e < kEpisodes; ++e) {
                central->arrive((*cnodes)[p]);
                waiting->arrive((*wnodes)[p]);
                ++(*done)[p];
            }
        });
    }
    m.run();
    for (std::uint32_t p = 0; p < kProcs; ++p)
        EXPECT_EQ((*done)[p], kEpisodes) << "proc " << p;
}

TEST(BarrierInteropTest, SingleParticipantSemanticsMatch)
{
    // participants == 1: both families degrade to a no-op arrive that
    // still flips senses correctly on every episode.
    CentralBarrier<NativePlatform> central(1);
    WaitingBarrier<NativePlatform> waiting(1);
    CentralBarrier<NativePlatform>::Node cn;
    WaitingBarrier<NativePlatform>::Node wn;
    for (int i = 0; i < 500; ++i) {
        central.arrive(cn);
        waiting.arrive(wn);
    }
    SUCCEED();
}

}  // namespace
}  // namespace reactive
