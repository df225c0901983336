// Tests for Chapter 4's waiting algorithms and the synchronization
// constructs built on them: wait_until semantics, futures,
// J-structures, barriers, and the waiting mutex, on both platforms —
// plus the reactive waiting axis: the eventcount contract of both
// native wait queues, the sim park/wake integration of the reactive
// primitives, and native oversubscribed park/wake storms.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "apps/workloads.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/cohort_queue.hpp"
#include "core/reactive_mutex.hpp"
#include "platform/native_platform.hpp"
#include "platform/parker.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"
#include "stats/summary.hpp"
#include "waiting/reactive/wait_select.hpp"
#include "waiting/reactive/wait_site.hpp"
#include "waiting/sync/barrier.hpp"
#include "waiting/sync/future.hpp"
#include "waiting/sync/jstructure.hpp"
#include "waiting/sync/waiting_mutex.hpp"
#include "waiting/wait.hpp"

namespace reactive {
namespace {

using sim::SimPlatform;

const WaitingAlgorithm kAlgos[] = {
    WaitingAlgorithm::always_spin(),
    WaitingAlgorithm::always_block(),
    WaitingAlgorithm::two_phase(270),
    WaitingAlgorithm::two_phase(500),
};

// ---- wait_until semantics ----------------------------------------------

TEST(WaitUntilTest, ImmediateConditionCostsNothing)
{
    sim::Machine m(1);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto out = std::make_shared<WaitOutcome>();
    m.spawn(0, [=] {
        *out = wait_until<SimPlatform>(*q, [] { return true; },
                                       WaitingAlgorithm::two_phase(270));
    });
    m.run();
    EXPECT_EQ(out->wait_cycles, 0u);
    EXPECT_FALSE(out->blocked);
}

TEST(WaitUntilTest, TwoPhaseShortWaitPollsOnly)
{
    // Condition satisfied well inside Lpoll: the waiter must not block.
    sim::Machine m(2);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    auto out = std::make_shared<WaitOutcome>();
    m.spawn(0, [=] {
        *out = wait_until<SimPlatform>(*q, [&] { return flag->load() != 0; },
                                       WaitingAlgorithm::two_phase(500));
    });
    m.spawn(1, [=] {
        sim::delay(100);
        flag->store(1);
        q->notify_all();
    });
    m.run();
    EXPECT_FALSE(out->blocked);
    EXPECT_GT(out->wait_cycles, 0u);
    EXPECT_LT(out->wait_cycles, 700u);
    EXPECT_EQ(m.stats().blocks, 0u);
}

TEST(WaitUntilTest, TwoPhaseLongWaitBlocks)
{
    sim::Machine m(2);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    auto out = std::make_shared<WaitOutcome>();
    m.spawn(0, [=] {
        *out = wait_until<SimPlatform>(*q, [&] { return flag->load() != 0; },
                                       WaitingAlgorithm::two_phase(270));
    });
    m.spawn(1, [=] {
        sim::delay(20000);  // far beyond Lpoll
        flag->store(1);
        q->notify_all();
    });
    m.run();
    EXPECT_TRUE(out->blocked);
    EXPECT_GE(out->wait_cycles, 20000u - 500u);
    EXPECT_EQ(m.stats().blocks, 1u);
}

TEST(WaitUntilTest, AlwaysSpinNeverBlocks)
{
    sim::Machine m(2);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    m.spawn(0, [=] {
        wait_until<SimPlatform>(*q, [&] { return flag->load() != 0; },
                                WaitingAlgorithm::always_spin());
    });
    m.spawn(1, [=] {
        sim::delay(5000);
        flag->store(1);
    });
    m.run();
    EXPECT_EQ(m.stats().blocks, 0u);
}

TEST(WaitUntilTest, AlwaysBlockBlocksImmediately)
{
    sim::Machine m(2);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    auto waiter_cycles = std::make_shared<std::uint64_t>(0);
    m.spawn(0, [=] {
        wait_until<SimPlatform>(*q, [&] { return flag->load() != 0; },
                                WaitingAlgorithm::always_block());
        *waiter_cycles = sim::now();
    });
    m.spawn(1, [=] {
        sim::delay(10000);
        flag->store(1);
        q->notify_all();
    });
    m.run();
    EXPECT_EQ(m.stats().blocks, 1u);
    // The blocked waiter burned ~B cycles of processor time, not 10000:
    // its processor was free while blocked (clock restarted at wake).
    EXPECT_GE(*waiter_cycles, 10000u);
}

TEST(WaitUntilTest, SwitchSpinningOverlapsWaitWithOtherContexts)
{
    // Two threads on one 4-context processor: one switch-spins waiting
    // for the other's result; the other computes 20000 cycles. With
    // spinning the wait would cost ~20000 wasted cycles on top of the
    // compute; switch-spinning hands the processor over (Section 4.1),
    // so total elapsed stays close to the compute time. Scheduling is
    // non-preemptive (Section 2.2.4), so the computing thread runs to
    // completion once switched to.
    sim::CostModel cm = sim::CostModel::multithreaded(4);
    sim::Machine m(1, cm);
    auto flag = std::make_shared<sim::Atomic<int>>(0);
    auto q = std::make_shared<SimPlatform::WaitQueue>();
    m.spawn(0, [=] {
        wait_until<SimPlatform>(
            *q, [&] { return flag->load() != 0; },
            WaitingAlgorithm::always_spin(PollMechanism::kSwitchSpin));
    });
    m.spawn(0, [=] {
        sim::delay(20000);
        flag->store(1);
    });
    m.run();
    EXPECT_GE(m.stats().context_switches, 1u);
    EXPECT_LT(m.elapsed(), 30000u);  // wait overlapped with compute
}

// ---- futures ------------------------------------------------------------

TEST(FutureTest, SimSetThenGet)
{
    for (const auto& alg : kAlgos) {
        sim::Machine m(2);
        auto f = std::make_shared<FutureValue<int, SimPlatform>>(alg);
        auto got = std::make_shared<int>(0);
        m.spawn(0, [=] { *got = f->get(); });
        m.spawn(1, [=] {
            sim::delay(3000);
            f->set_value(42);
        });
        m.run();
        EXPECT_EQ(*got, 42);
    }
}

TEST(FutureTest, ManyReadersOneWriter)
{
    sim::Machine m(8);
    auto f = std::make_shared<FutureValue<int, SimPlatform>>(
        WaitingAlgorithm::two_phase(270));
    auto sum = std::make_shared<long>(0);
    for (std::uint32_t p = 1; p < 8; ++p)
        m.spawn(p, [=] { *sum += f->get(); });
    m.spawn(0, [=] {
        sim::delay(5000);
        f->set_value(10);
    });
    m.run();
    EXPECT_EQ(*sum, 70);
}

TEST(FutureTest, NativeThreads)
{
    FutureValue<int, NativePlatform> f(WaitingAlgorithm::two_phase(2000));
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        f.set_value(7);
    });
    EXPECT_EQ(f.get(), 7);
    producer.join();
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(f.get(), 7);  // repeated reads fine
}

TEST(FutureTest, ProfileRecordsWaits)
{
    sim::Machine m(2);
    auto f = std::make_shared<FutureValue<int, SimPlatform>>(
        WaitingAlgorithm::always_spin());
    auto profile = std::make_shared<stats::Samples>();
    m.spawn(0, [=] { f->get(profile.get()); });
    m.spawn(1, [=] {
        sim::delay(4000);
        f->set_value(1);
    });
    m.run();
    ASSERT_EQ(profile->size(), 1u);
    EXPECT_GT(profile->values()[0], 3000.0);
}

// ---- J-structures --------------------------------------------------------

TEST(JStructureTest, PipelinedReadersAndWriter)
{
    for (const auto& alg : kAlgos) {
        sim::Machine m(4);
        auto js = std::make_shared<JStructure<int, SimPlatform>>(64, alg);
        auto sums = std::make_shared<std::vector<long>>(3, 0);
        // Producer fills slots with variable grain.
        m.spawn(0, [=] {
            for (int i = 0; i < 64; ++i) {
                sim::delay(100 + sim::random_below(300));
                js->write(static_cast<std::size_t>(i), i);
            }
        });
        for (std::uint32_t p = 1; p < 4; ++p) {
            m.spawn(p, [=] {
                long s = 0;
                for (int i = 0; i < 64; ++i)
                    s += js->read(static_cast<std::size_t>(i));
                (*sums)[p - 1] = s;
            });
        }
        m.run();
        for (long s : *sums)
            EXPECT_EQ(s, 64 * 63 / 2);
    }
}

TEST(JStructureTest, ResetAllowsReuse)
{
    JStructure<int, NativePlatform> js(4);
    js.write(0, 5);
    EXPECT_TRUE(js.full(0));
    EXPECT_EQ(js.read(0), 5);
    js.reset();
    EXPECT_FALSE(js.full(0));
    js.write(0, 6);
    EXPECT_EQ(js.read(0), 6);
}

// ---- barrier --------------------------------------------------------------

TEST(BarrierTest, EpisodesStayInLockstep)
{
    for (const auto& alg : kAlgos) {
        const std::uint32_t procs = 8;
        sim::Machine m(procs);
        auto bar = std::make_shared<WaitingBarrier<SimPlatform>>(procs, alg);
        auto phase_counts = std::make_shared<std::vector<int>>(10, 0);
        auto violations = std::make_shared<int>(0);
        for (std::uint32_t p = 0; p < procs; ++p) {
            m.spawn(p, [=] {
                WaitingBarrier<SimPlatform>::Node node;
                for (int e = 0; e < 10; ++e) {
                    sim::delay(sim::random_below(2000));  // skewed arrivals
                    ++(*phase_counts)[e];
                    bar->arrive(node);
                    // After the barrier, everyone must have arrived.
                    if ((*phase_counts)[e] != static_cast<int>(procs))
                        ++*violations;
                }
            });
        }
        m.run();
        EXPECT_EQ(*violations, 0);
    }
}

TEST(BarrierTest, NativeThreads)
{
    const std::uint32_t threads = 4;
    WaitingBarrier<NativePlatform> bar(threads,
                                       WaitingAlgorithm::two_phase(5000));
    std::atomic<int> arrived{0};
    std::atomic<int> violations{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            WaitingBarrier<NativePlatform>::Node node;
            for (int e = 0; e < 50; ++e) {
                arrived.fetch_add(1);
                bar.arrive(node);
                if (arrived.load() < (e + 1) * static_cast<int>(threads))
                    violations.fetch_add(1);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(violations.load(), 0);
}

// ---- waiting mutex ---------------------------------------------------------

TEST(WaitingMutexTest, MutualExclusionAllAlgorithms)
{
    for (const auto& alg : kAlgos) {
        sim::Machine m(8);
        auto mu = std::make_shared<WaitingMutex<SimPlatform>>(alg);
        auto inside = std::make_shared<int>(0);
        auto violations = std::make_shared<int>(0);
        auto count = std::make_shared<long>(0);
        for (std::uint32_t p = 0; p < 8; ++p) {
            m.spawn(p, [=] {
                for (int i = 0; i < 40; ++i) {
                    mu->lock();
                    if (++*inside != 1)
                        ++*violations;
                    sim::delay(30 + sim::random_below(50));
                    --*inside;
                    ++*count;
                    mu->unlock();
                    sim::delay(sim::random_below(200));
                }
            });
        }
        m.run();
        EXPECT_EQ(*violations, 0);
        EXPECT_EQ(*count, 8 * 40);
    }
}

TEST(WaitingMutexTest, BlockingFreesTheProcessor)
{
    // The waiter blocks (always-block) while the holder computes on
    // another processor; the blocked waiter's processor must not burn
    // the wait spinning: the wake resumes it near the unlock time.
    sim::Machine m(2);
    auto mu = std::make_shared<WaitingMutex<SimPlatform>>(
        WaitingAlgorithm::always_block());
    auto order = std::make_shared<std::vector<int>>();
    m.spawn(0, [=] {
        mu->lock();
        sim::delay(20000);
        order->push_back(1);
        mu->unlock();
    });
    m.spawn(1, [=] {
        sim::delay(500);  // ensure the first thread owns the mutex
        mu->lock();
        order->push_back(2);
        mu->unlock();
    });
    m.run();
    EXPECT_EQ(*order, (std::vector<int>{1, 2}));
    EXPECT_GE(m.stats().blocks, 1u);
    EXPECT_EQ(m.stats().wakes, m.stats().blocks);
}

TEST(WaitingMutexTest, ProfileSeparatesContendedWaits)
{
    sim::Machine m(4);
    auto mu = std::make_shared<WaitingMutex<SimPlatform>>(
        WaitingAlgorithm::two_phase(270));
    auto profile = std::make_shared<stats::Samples>();
    for (std::uint32_t p = 0; p < 4; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 20; ++i) {
                mu->lock(profile.get());
                sim::delay(200);
                mu->unlock();
                sim::delay(sim::random_below(100));
            }
        });
    }
    m.run();
    EXPECT_EQ(profile->size(), 80u);
    EXPECT_GT(profile->stats().max(), 0.0);  // some waits were real
}

// ---- eventcount contract (futex + condvar fallback) ---------------------
//
// The condvar fallback must obey the futex eventcount's exact
// epoch/waiters discipline (platform/parker.hpp file header). Both
// classes compile on Linux, so these race-window tests exercise the
// fallback on the platform the CI actually runs.

template <typename Q>
class EventCountContractTest : public ::testing::Test {};

#if defined(__linux__)
using EventCountTypes = ::testing::Types<FutexWaitQueue, CondVarWaitQueue>;
#else
using EventCountTypes = ::testing::Types<CondVarWaitQueue>;
#endif
TYPED_TEST_SUITE(EventCountContractTest, EventCountTypes);

TYPED_TEST(EventCountContractTest, NotifyInsidePrepareCommitWindowIsSeen)
{
    // The race window itself: a notify that lands after prepare_wait's
    // epoch snapshot must make commit_wait return without sleeping
    // (FUTEX_WAIT's compare-and-sleep; the condvar path's epoch
    // predicate under the mutex).
    TypeParam q;
    const std::uint32_t e = q.prepare_wait();
    q.notify_one();
    q.commit_wait(e);  // a lost wakeup would hang here
    EXPECT_EQ(q.waiters(), 0u);
}

TYPED_TEST(EventCountContractTest, CancelRetractsTheAdvertisement)
{
    TypeParam q;
    (void)q.prepare_wait();
    EXPECT_EQ(q.waiters(), 1u);
    q.cancel_wait();
    EXPECT_EQ(q.waiters(), 0u);
}

TYPED_TEST(EventCountContractTest, ElidedNotifyStillAdvancesTheEpoch)
{
    // A notify with no advertised waiters skips the expensive wake but
    // must still bump the epoch, or a waiter preparing concurrently
    // could snapshot the stale value and sleep through its wakeup.
    TypeParam q;
    const std::uint32_t e1 = q.prepare_wait();
    q.cancel_wait();
    q.notify_all();  // waiters == 0: wake elided
    const std::uint32_t e2 = q.prepare_wait();
    q.cancel_wait();
    EXPECT_NE(e1, e2);
}

TYPED_TEST(EventCountContractTest, PrepareNotifyRaceHammerLosesNoWakeup)
{
    // Two threads hammer the prepare/cancel/commit vs. notify window.
    // A lost wakeup wedges the waiter on a stale epoch and hangs the
    // test (the canary); wakes for already-satisfied rounds are
    // absorbed by the re-arm loop (spurious-wake tolerance).
    TypeParam q;
    std::atomic<std::uint32_t> published{0};
    constexpr std::uint32_t kRounds = 10000;
    std::thread waiter([&] {
        for (std::uint32_t r = 1; r <= kRounds; ++r) {
            for (;;) {
                const std::uint32_t e = q.prepare_wait();
                if (published.load(std::memory_order_seq_cst) >= r) {
                    q.cancel_wait();
                    break;
                }
                q.commit_wait(e);  // woken (or spurious): re-test
            }
        }
    });
    for (std::uint32_t r = 1; r <= kRounds; ++r) {
        published.store(r, std::memory_order_seq_cst);
        q.notify_one();
    }
    waiter.join();
    EXPECT_EQ(q.waiters(), 0u);
}

TYPED_TEST(EventCountContractTest, NotifyForAnotherPredicateReArmsCleanly)
{
    // Two waiters with distinct predicates share one queue. A
    // notify_all satisfying only the first must leave the second
    // re-armed and waiting (every wake is spurious from its point of
    // view) until its own predicate flips.
    TypeParam q;
    std::atomic<int> a{0};
    std::atomic<int> b{0};
    std::atomic<int> a_done{0};
    auto wait_for = [&](std::atomic<int>& flag) {
        for (;;) {
            const std::uint32_t e = q.prepare_wait();
            if (flag.load(std::memory_order_seq_cst) != 0) {
                q.cancel_wait();
                return;
            }
            q.commit_wait(e);
        }
    };
    std::thread ta([&] {
        wait_for(a);
        a_done.store(1, std::memory_order_seq_cst);
    });
    std::thread tb([&] { wait_for(b); });
    a.store(1, std::memory_order_seq_cst);
    q.notify_all();
    while (a_done.load(std::memory_order_seq_cst) == 0)
        std::this_thread::yield();
    EXPECT_EQ(b.load(), 0);  // tb's predicate untouched: still waiting
    b.store(1, std::memory_order_seq_cst);
    q.notify_all();
    ta.join();
    tb.join();
    EXPECT_EQ(q.waiters(), 0u);
}

// ---- reactive waiting axis: sim integration ------------------------------

using SpinLockSim = ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy>;
using ParkLockSim = ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy,
                                     ReactiveQueue<SimPlatform>, ParkWaiting,
                                     FixedWaitPolicy>;
using ReactiveWaitSim = ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy,
                                         ReactiveQueue<SimPlatform>,
                                         ParkWaiting, CalibratedWaitPolicy>;

sim::CostModel preemptive_costs()
{
    sim::CostModel c = sim::CostModel::alewife();
    c.preempt_quantum = 10000;
    return c;
}

TEST(WaitAxisSimTest, FixedParkHintParksWaiters)
{
    auto lock = std::make_shared<ParkLockSim>();
    lock->inner().wait_policy() =
        FixedWaitPolicy(WaitingAlgorithm::always_block());
    sim::MachineStats st;
    const std::uint64_t elapsed =
        apps::run_lock_cycle_oversubscribed<ParkLockSim>(
            2, /*factor=*/1, /*iters=*/60, /*cs=*/2000, /*think=*/0,
            /*seed=*/1, lock, sim::CostModel::alewife(), &st);
    EXPECT_GT(elapsed, 0u);
    // The park hint reaches the site at the first release; from then
    // on contended waiters block instead of spinning. The hold must
    // comfortably exceed the thread-unload cost (the commit_wait
    // window), or every park is aborted by the next release's epoch
    // bump before it can take effect.
    EXPECT_GT(st.blocks, 0u);
    EXPECT_EQ(st.wakes, st.blocks);
}

TEST(WaitAxisSimTest, SpinInstantiationNeverBlocksEvenOversubscribed)
{
    // The SpinWaiting lock has no parking machinery: oversubscribed it
    // survives on the preemption quantum alone (and must never touch
    // the machine's block/wake paths — the park-free identity).
    sim::MachineStats st;
    apps::run_lock_cycle_oversubscribed<SpinLockSim>(
        2, /*factor=*/2, /*iters=*/40, /*cs=*/100, /*think=*/0, /*seed=*/1,
        nullptr, preemptive_costs(), &st);
    EXPECT_EQ(st.blocks, 0u);
    EXPECT_EQ(st.wakes, 0u);
    EXPECT_GT(st.preemptions, 0u);
}

TEST(WaitAxisSimTest, ReactiveParksUnderOversubscription)
{
    // 4 threads per single-context processor with think time between
    // sections: spinners burn whole preemption quanta that runnable
    // thinkers need, the lock sits idle while the next acquirer waits
    // for a context, and the calibrated policy's idle lane drives it
    // out of spin — waiters must actually park. (A zero-think hot loop
    // is deliberately *not* used here: there the handoff is instant and
    // staying spin is the correct decision.)
    auto lock = std::make_shared<ReactiveWaitSim>();
    sim::MachineStats st;
    apps::run_lock_cycle_oversubscribed<ReactiveWaitSim>(
        2, /*factor=*/4, /*iters=*/60, /*cs=*/200, /*think=*/3000,
        /*seed=*/1, lock, preemptive_costs(), &st);
    EXPECT_GT(st.blocks, 0u);
    EXPECT_EQ(st.wakes, st.blocks);
    // The policy left spin at least once mid-run. (The *final* hint is
    // deliberately not asserted: as the run drains, contention drops
    // and a correct calibrated policy decays back toward spin.)
    EXPECT_GT(lock->inner().wait_mode_changes(), 0u);
}

TEST(WaitAxisSimTest, FactorOneQuantumOffMatchesFlatKernelExactly)
{
    // The park-free identity argument as a determinism check: the
    // oversubscribed kernel at factor 1 with the quantum off builds the
    // same machine and schedule as the flat kernel, so the elapsed
    // cycle counts must be *identical*, not merely close.
    const std::uint64_t flat = apps::run_lock_cycle<SpinLockSim>(
        4, /*iters=*/100, /*cs=*/100, /*think=*/300, /*seed=*/7);
    const std::uint64_t over =
        apps::run_lock_cycle_oversubscribed<SpinLockSim>(
            4, /*factor=*/1, /*iters=*/100, /*cs=*/100, /*think=*/300,
            /*seed=*/7);
    EXPECT_EQ(flat, over);
}

TEST(WaitAxisSimTest, CohortQueueParkingKeepsExclusionAndParks)
{
    // The NUMA lock's parking config: local waiters park under their
    // socket's site, leaders under the global site. Forced park hint,
    // socketed machine, exclusion + completion + parks.
    using CohortPark = ReactiveNodeLock<SimPlatform, AlwaysSwitchPolicy,
                                        CohortQueue<SimPlatform, ParkWaiting>,
                                        ParkWaiting, FixedWaitPolicy>;
    sim::Machine m(8, sim::Topology{2, 4}, sim::CostModel::alewife(), 5);
    CohortQueue<SimPlatform, ParkWaiting>::Params cp;
    cp.sockets = 2;
    auto lock = std::make_shared<CohortPark>(ReactiveLockParams{},
                                             AlwaysSwitchPolicy{}, cp);
    lock->inner().wait_policy() =
        FixedWaitPolicy(WaitingAlgorithm::always_block());
    auto inside = std::make_shared<int>(0);
    auto violations = std::make_shared<int>(0);
    auto count = std::make_shared<long>(0);
    for (std::uint32_t p = 0; p < 8; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 30; ++i) {
                typename CohortPark::Node node;
                lock->lock(node);
                if (++*inside != 1)
                    ++*violations;
                sim::delay(80);
                --*inside;
                ++*count;
                lock->unlock(node);
                sim::delay(sim::random_below(100));
            }
        });
    }
    m.run();
    EXPECT_EQ(*violations, 0);
    EXPECT_EQ(*count, 240);
    EXPECT_GT(m.stats().blocks, 0u);
}

TEST(WaitAxisSimTest, RwLockWriterWaitsFeedTheWaitLane)
{
    // A writer that wins after waiting is in consensus, so its measured
    // wait feeds the wait policy's W lane (the reactive mutex's rule);
    // without it the park_wait_factor x Lpoll cutoff never fires for
    // the rwlock.
    using RW = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy, ParkWaiting>;
    sim::Machine m(4, preemptive_costs(), 3);
    auto rw = std::make_shared<RW>();
    for (std::uint32_t p = 0; p < 4; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 20; ++i) {
                typename RW::Node n;
                rw->lock_write(n);
                sim::delay(200);
                rw->unlock_write(n);
                sim::delay(sim::random_below(100));
            }
        });
    }
    m.run();
    EXPECT_GT(rw->wait_policy().wait_estimate(), 0u);
}

TEST(WaitAxisSimTest, RwLockParkingMaintainsExclusionAndParks)
{
    using RW = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy, ParkWaiting,
                              FixedWaitPolicy>;
    sim::Machine m(4);
    auto rw = std::make_shared<RW>();
    rw->wait_policy() = FixedWaitPolicy(WaitingAlgorithm::always_block());
    auto writers_in = std::make_shared<int>(0);
    auto readers_in = std::make_shared<int>(0);
    auto violations = std::make_shared<int>(0);
    auto ops = std::make_shared<long>(0);
    for (std::uint32_t p = 0; p < 4; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 40; ++i) {
                typename RW::Node n;
                if ((i + static_cast<int>(p)) % 3 == 0) {
                    rw->lock_write(n);
                    if (++*writers_in != 1 || *readers_in != 0)
                        ++*violations;
                    // Outlasts the simulated thread unload (300 cycles),
                    // so a waiter parked behind the writer really
                    // blocks; a shorter hold ends before the unload
                    // does and the park is elided.
                    sim::delay(400);
                    --*writers_in;
                    rw->unlock_write(n);
                } else {
                    rw->lock_read(n);
                    ++*readers_in;
                    if (*writers_in != 0)
                        ++*violations;
                    sim::delay(60);
                    --*readers_in;
                    rw->unlock_read(n);
                }
                ++*ops;
                sim::delay(sim::random_below(120));
            }
        });
    }
    m.run();
    EXPECT_EQ(*violations, 0);
    EXPECT_EQ(*ops, 160);
    EXPECT_GT(m.stats().blocks, 0u);
}

TEST(WaitAxisSimTest, BarrierParkingStaysInLockstepAndParks)
{
    // Pin the protocol to central (the only slot that exposes the
    // site-aware episode wait; tree/dissemination keep local spins) and
    // force the park hint: early arrivals must park and the completer's
    // broadcast must wake every one, or the episode wedges.
    struct NeverPolicy {
        std::uint32_t next_protocol(ProtocolSignal s) { return s.protocol; }
        void on_switch() {}
    };
    using Bar = ReactiveBarrier<SimPlatform, NeverPolicy,
                                CentralTreeBarrierSet<SimPlatform>,
                                ParkWaiting, FixedWaitPolicy>;
    const std::uint32_t procs = 4;
    sim::Machine m(procs);
    auto bar = std::make_shared<Bar>(procs);
    bar->wait_policy() = FixedWaitPolicy(WaitingAlgorithm::always_block());
    auto phase_counts = std::make_shared<std::vector<int>>(20, 0);
    auto violations = std::make_shared<int>(0);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename Bar::Node node;
            for (int e = 0; e < 20; ++e) {
                sim::delay(sim::random_below(3000));  // skewed arrivals
                ++(*phase_counts)[e];
                bar->arrive(node);
                if ((*phase_counts)[e] != static_cast<int>(procs))
                    ++*violations;
            }
        });
    }
    m.run();
    EXPECT_EQ(*violations, 0);
    EXPECT_EQ(bar->mode(), Bar::Mode::kCentral);
    EXPECT_GT(m.stats().blocks, 0u);
    EXPECT_EQ(m.stats().wakes, m.stats().blocks);
}

// ---- native oversubscribed park/wake storms ------------------------------
//
// Run with TSan in CI (repeated): `factor` threads per CPU all hammer
// one object whose wait mode is forced to rotate every release, so
// parked waiters keep being woken into a different mode (spurious
// wakes), hints keep going stale, and any lost wakeup hangs the test.

/// Rotates the published hint spin -> two-phase -> park on every
/// release. In-consensus only (no atomics needed, like any policy).
class CyclingWaitPolicy {
  public:
    std::uint32_t on_release(const WaitSignal&)
    {
        WaitHint h;
        switch (n_++ % 3) {
        case 0:
            h.mode = WaitMode::kSpin;
            break;
        case 1:
            h.mode = WaitMode::kTwoPhase;
            h.poll_limit = 500;
            break;
        default:
            h.mode = WaitMode::kPark;
            break;
        }
        hint_ = pack_wait_hint(h);
        return hint_;
    }
    void note_wake_latency(std::uint64_t) {}
    std::uint32_t hint() const { return hint_; }

  private:
    std::uint32_t n_ = 0;
    std::uint32_t hint_ = pack_wait_hint(WaitHint{});
};

static_assert(WaitSelectPolicy<CyclingWaitPolicy>);

/// Threads = factor x online CPUs; iteration counts sized so the storm
/// finishes quickly under TSan's ~10x slowdown.
std::uint32_t storm_threads(std::uint32_t factor)
{
    const unsigned hw = std::thread::hardware_concurrency();
    return (hw != 0 ? hw : 1u) * factor;
}

TEST(ParkWakeStormTest, OversubscribedLockStormUnderModeSwitches)
{
    using L = ReactiveNodeLock<NativePlatform, AlwaysSwitchPolicy,
                               ReactiveQueue<NativePlatform>, ParkWaiting,
                               CyclingWaitPolicy>;
    L lock;
    const std::uint32_t threads = storm_threads(4);
    constexpr int kIters = 400;
    std::atomic<int> inside{0};
    std::atomic<int> violations{0};
    std::atomic<long> count{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                typename L::Node n;
                lock.lock(n);
                if (inside.fetch_add(1, std::memory_order_relaxed) != 0)
                    violations.fetch_add(1, std::memory_order_relaxed);
                inside.fetch_sub(1, std::memory_order_relaxed);
                count.fetch_add(1, std::memory_order_relaxed);
                lock.unlock(n);
            }
        });
    }
    for (auto& th : pool)
        th.join();  // a lost wakeup hangs the join (the canary)
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(count.load(), static_cast<long>(threads) * kIters);
}

TEST(ParkWakeStormTest, OversubscribedRwLockStormUnderModeSwitches)
{
    using RW = ReactiveRwLock<NativePlatform, AlwaysSwitchPolicy,
                              ParkWaiting, CyclingWaitPolicy>;
    RW rw;
    const std::uint32_t threads = storm_threads(4);
    constexpr int kIters = 250;
    std::atomic<int> writers_in{0};
    std::atomic<int> violations{0};
    std::atomic<long> ops{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                typename RW::Node n;
                if ((i + static_cast<int>(t)) % 4 == 0) {
                    rw.lock_write(n);
                    if (writers_in.fetch_add(1,
                                             std::memory_order_relaxed) != 0)
                        violations.fetch_add(1, std::memory_order_relaxed);
                    writers_in.fetch_sub(1, std::memory_order_relaxed);
                    rw.unlock_write(n);
                } else {
                    rw.lock_read(n);
                    if (writers_in.load(std::memory_order_relaxed) != 0)
                        violations.fetch_add(1, std::memory_order_relaxed);
                    rw.unlock_read(n);
                }
                ops.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(ops.load(), static_cast<long>(threads) * kIters);
}

TEST(ParkWakeStormTest, OversubscribedBarrierStormUnderModeSwitches)
{
    // Small participant count (episodes serialize on the slowest
    // thread) but heavily timeshared: every episode mixes parked and
    // spinning waiters as the hint rotates underneath them.
    struct NeverPolicy {
        std::uint32_t next_protocol(ProtocolSignal s) { return s.protocol; }
        void on_switch() {}
    };
    using Bar = ReactiveBarrier<NativePlatform, NeverPolicy,
                                CentralTreeBarrierSet<NativePlatform>,
                                ParkWaiting, CyclingWaitPolicy>;
    const std::uint32_t threads = 4;
    Bar bar(threads);
    constexpr int kEpisodes = 150;
    std::atomic<int> arrived{0};
    std::atomic<int> violations{0};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            typename Bar::Node node;
            for (int e = 0; e < kEpisodes; ++e) {
                arrived.fetch_add(1);
                bar.arrive(node);
                if (arrived.load() < (e + 1) * static_cast<int>(threads))
                    violations.fetch_add(1);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace reactive
