// Tests for the simulated multiprocessor substrate (the NWO-substitute).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "sim/sim_platform.hpp"

namespace reactive::sim {
namespace {

TEST(FiberTest, RunsToCompletion)
{
    int x = 0;
    Fiber f([&] { x = 42; });
    EXPECT_FALSE(f.done());
    f.resume();
    EXPECT_TRUE(f.done());
    EXPECT_EQ(x, 42);
}

TEST(FiberTest, YieldAndResume)
{
    std::vector<int> order;
    Fiber f([&] {
        order.push_back(1);
        Fiber::yield_current();
        order.push_back(3);
    });
    f.resume();
    order.push_back(2);
    f.resume();
    EXPECT_TRUE(f.done());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(FiberTest, ManyFibersInterleave)
{
    std::vector<int> order;
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int i = 0; i < 4; ++i) {
        fibers.emplace_back(std::make_unique<Fiber>([&order, i] {
            order.push_back(i);
            Fiber::yield_current();
            order.push_back(i + 10);
        }));
    }
    for (auto& f : fibers)
        f->resume();
    for (auto& f : fibers)
        f->resume();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
}

TEST(FiberTest, SwitchToHandsControlDirectly)
{
    // a starts b, b hands back to a, a yields to the scheduler; each
    // resume then continues the fiber where it last gave up control.
    std::vector<int> order;
    std::vector<Fiber*> seen;
    std::unique_ptr<Fiber> a, b;
    a = std::make_unique<Fiber>([&] {
        order.push_back(1);
        seen.push_back(Fiber::current());
        Fiber::switch_to(*b);  // b has not started yet
        order.push_back(3);
        seen.push_back(Fiber::current());
        Fiber::yield_current();
        order.push_back(6);
        seen.push_back(Fiber::current());
    });
    b = std::make_unique<Fiber>([&] {
        order.push_back(2);
        seen.push_back(Fiber::current());
        Fiber::switch_to(*a);
        order.push_back(5);
        seen.push_back(Fiber::current());
    });
    EXPECT_EQ(Fiber::current(), nullptr);
    a->resume();  // returns when a yields, after the a -> b -> a handoff
    order.push_back(4);
    seen.push_back(Fiber::current());
    b->resume();  // b continues after its switch_to and finishes
    EXPECT_TRUE(b->done());
    EXPECT_FALSE(a->done());
    a->resume();
    EXPECT_TRUE(a->done());
    EXPECT_EQ(Fiber::current(), nullptr);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(seen, (std::vector<Fiber*>{a.get(), b.get(), a.get(), nullptr,
                                         b.get(), a.get()}));
}

TEST(FiberTest, DeepStackUse)
{
    // Exercise a good chunk of the stack below the guard page.
    bool ok = false;
    Fiber f(
        [&] {
            volatile char buf[48 * 1024];
            for (std::size_t i = 0; i < sizeof(buf); i += 4096)
                buf[i] = static_cast<char>(i);
            ok = buf[4096] == static_cast<char>(4096);
        },
        64 * 1024);
    f.resume();
    EXPECT_TRUE(ok);
}

TEST(MachineTest, DelayAdvancesClock)
{
    Machine m(2);
    m.spawn(0, [] { delay(1000); });
    m.spawn(1, [] { delay(500); });
    m.run();
    EXPECT_GE(m.cycles(0), 1000u + m.costs().thread_reload);
    EXPECT_GE(m.cycles(1), 500u);
    EXPECT_LT(m.cycles(1), m.cycles(0));
    EXPECT_EQ(m.elapsed(), m.cycles(0));
}

TEST(MachineTest, DeterministicAcrossRuns)
{
    auto experiment = [](std::uint64_t seed) {
        Machine m(8, CostModel::alewife(), seed);
        auto counter = std::make_shared<Atomic<int>>(0);
        for (std::uint32_t p = 0; p < 8; ++p) {
            m.spawn(p, [counter] {
                for (int i = 0; i < 50; ++i) {
                    counter->fetch_add(1);
                    delay(random_below(100));
                }
            });
        }
        m.run();
        return m.elapsed();
    };
    EXPECT_EQ(experiment(3), experiment(3));
    EXPECT_NE(experiment(3), experiment(4));  // seeds change the schedule
}

TEST(MachineTest, AtomicCoherenceCosts)
{
    Machine m(2);
    std::uint64_t local_hit_time = 0, remote_time = 0;
    auto shared = std::make_shared<Atomic<int>>(0);
    m.spawn(0, [&, shared] {
        shared->store(1);  // miss: first touch
        const std::uint64_t t0 = now();
        shared->store(2);  // owned: cache hit
        local_hit_time = now() - t0;
        delay(10000);      // let cpu1 take the line
        const std::uint64_t t1 = now();
        shared->store(3);  // must invalidate cpu1's copy
        remote_time = now() - t1;
    });
    m.spawn(1, [shared] {
        delay(2000);
        (void)shared->load();  // become a sharer
        delay(20000);
    });
    m.run();
    EXPECT_EQ(local_hit_time, m.costs().cache_hit);
    EXPECT_GT(remote_time, local_hit_time * 2);
}

TEST(MachineTest, InvalidationCostScalesWithSharers)
{
    auto release_cost = [](std::uint32_t sharers) {
        Machine m(sharers + 1);
        auto flag = std::make_shared<Atomic<int>>(0);
        auto cost = std::make_shared<std::uint64_t>(0);
        for (std::uint32_t p = 1; p <= sharers; ++p)
            m.spawn(p, [flag] { (void)flag->load(); });
        m.spawn(0, [flag, cost] {
            delay(5000);  // after all sharers cached the line
            const std::uint64_t t0 = now();
            flag->store(1);
            *cost = now() - t0;
        });
        m.run();
        return *cost;
    };
    const std::uint64_t few = release_cost(2);
    const std::uint64_t many = release_cost(32);
    EXPECT_GT(many, few + 100);  // sequential invalidations + overflow trap
}

TEST(MachineTest, FullMapDirectoryCheaperThanLimited)
{
    auto storm = [](CostModel cm) {
        Machine m(33, cm);
        auto flag = std::make_shared<Atomic<int>>(0);
        auto cost = std::make_shared<std::uint64_t>(0);
        for (std::uint32_t p = 1; p <= 32; ++p)
            m.spawn(p, [flag] { (void)flag->load(); });
        m.spawn(0, [flag, cost] {
            delay(5000);
            const std::uint64_t t0 = now();
            flag->store(1);
            *cost = now() - t0;
        });
        m.run();
        return *cost;
    };
    EXPECT_LT(storm(CostModel::dirnnb()), storm(CostModel::alewife()));
}

TEST(MachineTest, MessagesDeliveredInOrder)
{
    Machine m(2);
    auto log = std::make_shared<std::vector<int>>();
    m.spawn(0, [&m, log] {
        m.send(1, [log] { log->push_back(1); });
        m.send(1, [log] { log->push_back(2); });
        m.send(1, [log] { log->push_back(3); });
        delay(1000);
    });
    m.spawn(1, [] { delay(2000); });
    m.run();
    EXPECT_EQ(*log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(m.stats().messages, 3u);
    EXPECT_EQ(m.stats().handlers, 3u);
}

TEST(MachineTest, MessageRoundTrip)
{
    Machine m(2);
    auto reply_flag = std::make_shared<Atomic<int>>(0);
    std::uint64_t rtt = 0;
    m.spawn(0, [&, reply_flag] {
        const std::uint64_t t0 = now();
        m.send(1, [&m, reply_flag] {
            // Handler runs on cpu 1; reply to cpu 0.
            m.send(0, [reply_flag] { reply_flag->store(1); });
        });
        while (reply_flag->load() == 0)
            pause();
        rtt = now() - t0;
    });
    m.run();
    const auto& c = m.costs();
    EXPECT_GE(rtt, 2u * (c.msg_send_overhead + c.msg_latency));
    EXPECT_EQ(m.stats().handlers, 2u);
}

TEST(MachineTest, MessageToSelfDelivered)
{
    Machine m(1);
    auto got = std::make_shared<Atomic<int>>(0);
    m.spawn(0, [&m, got] {
        m.send(0, [got] { got->store(1); });
        while (got->load() == 0)
            pause();
    });
    m.run();
    EXPECT_EQ(got->load(), 1);
}

TEST(MachineTest, WaitQueueBlocksAndWakes)
{
    Machine m(2, CostModel::alewife());
    auto q = std::make_shared<SimWaitQueue>();
    auto data = std::make_shared<Atomic<int>>(0);
    auto observed = std::make_shared<int>(-1);
    m.spawn(0, [q, data, observed] {
        for (;;) {
            std::uint32_t e = q->prepare_wait();
            if (data->load() != 0) {
                q->cancel_wait();
                break;
            }
            q->commit_wait(e);
        }
        *observed = data->load();
    });
    m.spawn(1, [q, data] {
        delay(5000);
        data->store(7);
        q->notify_one();
    });
    m.run();
    EXPECT_EQ(*observed, 7);
    EXPECT_EQ(m.stats().blocks, 1u);
    EXPECT_EQ(m.stats().wakes, 1u);
    // The blocked waiter must not have burned cycles while blocked: its
    // processor clock restarts near the waker's notification time.
    EXPECT_GT(m.cycles(0), 5000u);
}

TEST(MachineTest, BlockingCostMatchesTable41)
{
    // One thread blocks, another wakes it; the wakee's processor should
    // be charged roughly unload + reload, and the waker reenable.
    Machine m(2);
    auto q = std::make_shared<SimWaitQueue>();
    auto flag = std::make_shared<Atomic<int>>(0);
    m.spawn(0, [q, flag] {
        std::uint32_t e = q->prepare_wait();
        if (flag->load() == 0)
            q->commit_wait(e);
        else
            q->cancel_wait();
    });
    m.spawn(1, [q, flag] {
        delay(3000);
        flag->store(1);
        q->notify_one();
    });
    m.run();
    const auto& c = m.costs();
    EXPECT_GE(c.blocking_cost(), 400u);  // ~500 cycles on Alewife
    EXPECT_LE(c.blocking_cost(), 600u);
    EXPECT_EQ(m.stats().blocks, 1u);
}

TEST(MachineTest, NotifyAllWakesEveryone)
{
    Machine m(5);
    auto q = std::make_shared<SimWaitQueue>();
    auto go = std::make_shared<Atomic<int>>(0);
    auto woke = std::make_shared<Atomic<int>>(0);
    for (std::uint32_t p = 1; p < 5; ++p) {
        m.spawn(p, [q, go, woke] {
            for (;;) {
                std::uint32_t e = q->prepare_wait();
                if (go->load() != 0) {
                    q->cancel_wait();
                    break;
                }
                q->commit_wait(e);
            }
            woke->fetch_add(1);
        });
    }
    m.spawn(0, [q, go] {
        delay(10000);
        go->store(1);
        q->notify_all();
    });
    m.run();
    EXPECT_EQ(woke->load(), 4);
}

TEST(MachineTest, WaitQueueCountsAdvertisedWaitersLikeNative)
{
    // waiters() mirrors the native eventcounts (platform/parker.hpp):
    // the count moves at prepare_wait (the advertisement), not at the
    // block, and is retracted by cancel_wait or when the committed
    // wait resolves. A releaser consulting the count during the
    // prepare/commit window therefore sees the waiter — the semantics
    // wait_site.hpp's sim-side notify skip is sound under. (The old
    // drift — sim counting only *blocked* waiters — would make that
    // skip strand a preparing waiter on its stale epoch snapshot.)
    SimWaitQueue q;
    EXPECT_EQ(q.waiters(), 0u);
    std::uint32_t e = q.prepare_wait();
    EXPECT_EQ(q.waiters(), 1u);
    q.cancel_wait();
    EXPECT_EQ(q.waiters(), 0u);
    e = q.prepare_wait();
    q.notify_one();              // epoch moves inside the window
    EXPECT_EQ(q.waiters(), 1u);  // advertised until the wait resolves
    q.commit_wait(e);            // stale epoch: returns, no block
    EXPECT_EQ(q.waiters(), 0u);
}

TEST(MachineTest, NotifyInsidePrepareCommitWindowIsSeenInSim)
{
    // Sim counterpart of EventCountContractTest's race-window test: a
    // notify landing between prepare_wait and commit_wait must make
    // commit_wait return via the epoch re-check, and the notifier
    // consulting waiters() inside that window must see the preparing
    // waiter advertised. Together these are what make "skip the
    // notify when waiters() == 0" exact in the sequential simulation.
    Machine m(2);
    auto q = std::make_shared<SimWaitQueue>();
    auto seen = std::make_shared<std::uint32_t>(99);
    m.spawn(0, [q] {
        std::uint32_t e = q->prepare_wait();
        delay(5000);        // hold the prepare/commit window open
        q->commit_wait(e);  // a lost wakeup would deadlock the run
    });
    m.spawn(1, [q, seen] {
        delay(1000);  // land inside the waiter's window
        *seen = q->waiters();
        q->notify_all();
    });
    m.run();  // the deadlock detector is the lost-wakeup canary
    EXPECT_EQ(*seen, 1u);
}

TEST(MachineTest, DeadlockDetected)
{
    Machine m(1);
    auto q = std::make_shared<SimWaitQueue>();
    m.spawn(0, [q] {
        std::uint32_t e = q->prepare_wait();
        q->commit_wait(e);  // nobody will ever notify
    });
    EXPECT_THROW(m.run(), std::runtime_error);
}

TEST(MachineTest, MultithreadedContextsShareProcessor)
{
    CostModel cm = CostModel::multithreaded(4);
    Machine m(1, cm);
    auto log = std::make_shared<std::vector<int>>();
    for (int t = 0; t < 3; ++t) {
        m.spawn(0, [&m, log, t] {
            for (int i = 0; i < 3; ++i) {
                log->push_back(t);
                m.context_switch();
            }
        });
    }
    m.run();
    ASSERT_EQ(log->size(), 9u);
    // Context switching must interleave the three resident threads.
    EXPECT_EQ((*log)[0], 0);
    EXPECT_EQ((*log)[1], 1);
    EXPECT_EQ((*log)[2], 2);
    EXPECT_GT(m.stats().context_switches, 0u);
}

TEST(MachineTest, SpawnFromInsideSim)
{
    Machine m(2);
    auto sum = std::make_shared<Atomic<int>>(0);
    m.spawn(0, [&m, sum] {
        for (int i = 0; i < 3; ++i)
            m.spawn(1, [sum] { sum->fetch_add(1); });
        delay(100);
    });
    m.run();
    EXPECT_EQ(sum->load(), 3);
    EXPECT_EQ(m.stats().threads_spawned, 4u);
}

TEST(MachineTest, ReadySpilloverRunsSequentially)
{
    // More threads than hardware contexts on one processor: all must
    // still complete (loaded as slots free up).
    Machine m(1);  // 1 hardware context
    auto count = std::make_shared<Atomic<int>>(0);
    for (int t = 0; t < 5; ++t)
        m.spawn(0, [count] {
            delay(100);
            count->fetch_add(1);
        });
    m.run();
    EXPECT_EQ(count->load(), 5);
}

// ---- topology (two-level NUMA cost model) -----------------------------

TEST(TopologyTest, SocketMappingCoversRaggedLastSocket)
{
    Machine m(10, Topology{3, 4});
    EXPECT_EQ(m.sockets(), 3u);
    EXPECT_EQ(m.cores_per_socket(), 4u);
    EXPECT_EQ(m.socket_of(0), 0u);
    EXPECT_EQ(m.socket_of(3), 0u);
    EXPECT_EQ(m.socket_of(4), 1u);
    EXPECT_EQ(m.socket_of(9), 2u);

    Machine derived(12, Topology{4, 0});  // cores_per_socket derived
    EXPECT_EQ(derived.cores_per_socket(), 3u);
    EXPECT_EQ(derived.socket_of(11), 3u);

    // More sockets than processors clamps (no empty socket can hold a
    // processor).
    Machine tiny(2, Topology{8, 0});
    EXPECT_EQ(tiny.sockets(), 2u);
}

/// Shared-contention kernel for the invariance tests: every processor
/// hammers one line and one private line with seeded think time.
std::uint64_t topology_kernel(Machine& m, std::uint32_t procs)
{
    auto hot = std::make_shared<Atomic<std::uint32_t>>(0);
    auto flags = std::make_shared<std::vector<std::unique_ptr<
        Atomic<std::uint32_t>>>>();
    for (std::uint32_t p = 0; p < procs; ++p)
        flags->push_back(std::make_unique<Atomic<std::uint32_t>>(0));
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 40; ++i) {
                hot->fetch_add(1);
                (void)hot->load();
                (*flags)[p]->store(static_cast<std::uint32_t>(i));
                delay(random_below(200));
            }
        });
    }
    m.run();
    return m.elapsed();
}

TEST(TopologyTest, FlatTopologyIsByteIdenticalAndTrafficFree)
{
    // The explicit one-socket topology must change *nothing*: same
    // cycles, same memory-op and miss counts as the historical flat
    // constructor, and the cross-socket counters never fire.
    constexpr std::uint32_t kProcs = 12;
    Machine flat(kProcs, CostModel::alewife(), 7);
    const std::uint64_t flat_elapsed = topology_kernel(flat, kProcs);

    Machine one(kProcs, Topology{1, 0}, CostModel::alewife(), 7);
    EXPECT_EQ(topology_kernel(one, kProcs), flat_elapsed);
    EXPECT_EQ(one.stats().mem_ops, flat.stats().mem_ops);
    EXPECT_EQ(one.stats().remote_misses, flat.stats().remote_misses);
    EXPECT_EQ(one.stats().invalidations, flat.stats().invalidations);
    EXPECT_EQ(one.stats().cross_socket_transfers, 0u);
    EXPECT_EQ(one.stats().cross_socket_invalidations, 0u);
    EXPECT_EQ(flat.stats().cross_socket_transfers, 0u);
}

TEST(TopologyTest, ZeroedExtrasMakeSocketsCostNeutral)
{
    // The topology layer itself adds zero traffic and zero cost: a
    // two-socket machine whose cross-socket extras are zeroed produces
    // byte-identical cycles and op counts to the flat machine — the
    // only difference is that the cross-socket *counters* now see the
    // traffic the extras would have charged.
    constexpr std::uint32_t kProcs = 12;
    Machine flat(kProcs, CostModel::alewife(), 9);
    const std::uint64_t flat_elapsed = topology_kernel(flat, kProcs);

    CostModel zeroed = CostModel::alewife();
    zeroed.cross_socket_extra = 0;
    zeroed.invalidate_cross_extra = 0;
    Machine numa(kProcs, Topology{2, 6}, zeroed, 9);
    EXPECT_EQ(topology_kernel(numa, kProcs), flat_elapsed);
    EXPECT_EQ(numa.stats().mem_ops, flat.stats().mem_ops);
    EXPECT_EQ(numa.stats().remote_misses, flat.stats().remote_misses);
    EXPECT_GT(numa.stats().cross_socket_transfers, 0u);
}

TEST(TopologyTest, CrossSocketFetchCostsExtra)
{
    // cpu0 dirties a line; a reader on another socket pays the
    // two-level extra over a same-socket reader.
    auto read_cost = [](std::uint32_t reader) {
        Machine m(4, Topology{2, 2});
        auto line = std::make_shared<Atomic<std::uint32_t>>(0);
        auto cost = std::make_shared<std::uint64_t>(0);
        m.spawn(0, [line] { line->store(1); });
        m.spawn(reader, [line, cost] {
            delay(5000);
            const std::uint64_t t0 = now();
            (void)line->load();
            *cost = now() - t0;
        });
        m.run();
        return *cost;
    };
    const std::uint64_t intra = read_cost(1);   // same socket as writer
    const std::uint64_t cross = read_cost(2);   // other socket
    // Jitter is [0,4); the extra is 50.
    EXPECT_GE(cross, intra + CostModel{}.cross_socket_extra - 4);
}

TEST(TopologyTest, CrossSocketInvalidationCostsExtra)
{
    // A writer invalidating sharers pays per-copy extras only for the
    // sharers on other sockets.
    auto write_cost = [](std::uint32_t writer) {
        Machine m(6, Topology{2, 3});
        auto line = std::make_shared<Atomic<std::uint32_t>>(0);
        auto cost = std::make_shared<std::uint64_t>(0);
        for (std::uint32_t p = 0; p < 6; ++p) {
            if (p == writer)
                continue;
            m.spawn(p, [line] { (void)line->load(); });
        }
        m.spawn(writer, [line, cost] {
            delay(5000);
            const std::uint64_t t0 = now();
            line->store(7);
            *cost = now() - t0;
        });
        m.run();
        return std::pair(*cost, m.stats().cross_socket_invalidations);
    };
    const auto [c0, x0] = write_cost(0);
    (void)c0;
    EXPECT_EQ(x0, 3u);  // three sharers live on socket 1
}

TEST(SimPlatformTest, CurrentSocketTracksTopology)
{
    Machine m(4, Topology{2, 2});
    std::vector<std::uint32_t> seen(4, 99);
    for (std::uint32_t p = 0; p < 4; ++p)
        m.spawn(p, [&seen, p] { seen[p] = SimPlatform::current_socket(); });
    m.run();
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 0, 1, 1}));
    EXPECT_EQ(SimPlatform::current_socket(), 0u);  // outside any sim
    EXPECT_EQ(SimPlatform::socket_count(), 1u);
}

TEST(SimPlatformTest, SatisfiesPlatformConcept)
{
    static_assert(reactive::Platform<SimPlatform>);
    SUCCEED();
}

TEST(SimPlatformTest, NowAndDelayInsideSim)
{
    Machine m(1);
    std::uint64_t t0 = 0, t1 = 0;
    m.spawn(0, [&] {
        t0 = SimPlatform::now();
        SimPlatform::delay(777);
        t1 = SimPlatform::now();
    });
    m.run();
    EXPECT_EQ(t1 - t0, 777u);
}

TEST(SimPlatformTest, AtomicOutsideSimIsDirect)
{
    Atomic<int> a(5);
    EXPECT_EQ(a.load(), 5);
    a.store(6);
    EXPECT_EQ(a.exchange(7), 6);
    int expected = 7;
    EXPECT_TRUE(a.compare_exchange_strong(expected, 8));
    EXPECT_EQ(a.fetch_add(2), 8);
    EXPECT_EQ(a.load(), 10);
}

// ---- pinned schedules -------------------------------------------------
//
// Golden fingerprints of small fixed-seed kernels: the simulated end
// time, every MachineStats counter and a hash of the order in which
// simulated events happened. The numbers are pinned, not compared
// between two runs of one build, so any change to which simulated code
// runs when (scheduler, fiber switching, heap order) shows here even
// when every run of the new build agrees with itself.

/// Host-side order log: simulated code runs on one host thread, so a
/// plain hash of (event, actor) pairs records the interleaving.
struct OrderHash {
    std::uint64_t h = 14695981039346656037ull;
    void mix(std::uint64_t v)
    {
        h ^= v;
        h *= 1099511628211ull;
    }
};

using Fingerprint = std::vector<std::uint64_t>;

Fingerprint fingerprint(const Machine& m, const OrderHash& order)
{
    const MachineStats& s = m.stats();
    return {m.elapsed(),
            s.mem_ops,
            s.remote_misses,
            s.cross_socket_transfers,
            s.cross_socket_invalidations,
            s.invalidations,
            s.dir_overflows,
            s.messages,
            s.handlers,
            s.context_switches,
            s.blocks,
            s.wakes,
            s.threads_spawned,
            s.preemptions,
            order.h};
}

TEST(PinnedScheduleTest, SingleContextSpinnersOnSharedLine)
{
    constexpr std::uint32_t kProcs = 6;
    Machine m(kProcs, CostModel::alewife(), 11);
    OrderHash order;
    Atomic<std::uint32_t> turn(0), hits(0);
    for (std::uint32_t p = 0; p < kProcs; ++p) {
        m.spawn(p, [&, p] {
            for (std::uint32_t r = 0; r < 4; ++r) {
                order.mix(hits.fetch_add(1) * 16 + p);
                while (turn.load() != r * kProcs + p)
                    pause();
                order.mix(now());
                turn.fetch_add(1);
            }
        });
    }
    m.run();
    EXPECT_EQ(fingerprint(m, order),
              (Fingerprint{6705, 1021, 125, 0, 0, 123, 17, 0, 0, 0, 0, 0, 6, 0, 9844310603781354045ull}));
}

TEST(PinnedScheduleTest, FourContextsSwitchSpinning)
{
    Machine m(2, CostModel::multithreaded(4), 12);
    OrderHash order;
    Atomic<std::uint32_t> counter(0), done(0);
    for (std::uint32_t t = 0; t < 8; ++t) {
        m.spawn(t % 2, [&, t] {
            for (int i = 0; i < 5; ++i) {
                order.mix(counter.fetch_add(1) * 16 + t);
                m.context_switch();
                delay(random_below(20));
            }
            done.fetch_add(1);
            while (done.load() != 8)
                m.context_switch();
            order.mix(now() * 16 + t);
        });
    }
    m.run();
    EXPECT_EQ(fingerprint(m, order),
              (Fingerprint{2907, 64, 48, 0, 0, 45, 0, 0, 0, 48, 0, 0, 8, 0, 12642584201098359621ull}));
}

TEST(PinnedScheduleTest, MessagesDelayedAndSelfSends)
{
    Machine m(3, CostModel::alewife(), 13);
    OrderHash order;
    Atomic<std::uint32_t> replies(0), shared(0);
    m.spawn(0, [&] {
        for (std::uint32_t i = 0; i < 4; ++i) {
            m.send(1, [&, i] {
                order.mix(100 + i);
                (void)shared.load();
                m.send(0, [&] { replies.fetch_add(1); });
            });
            m.send_delayed(2, 50 * i, [&, i] {
                order.mix(200 + i);
                shared.fetch_add(1);
                m.send(0, [&] { replies.fetch_add(1); });
            });
            m.send(0, [&, i] {
                order.mix(300 + i);
                replies.fetch_add(1);
            });
            delay(random_below(40));
        }
        while (replies.load() != 12)
            pause();
        order.mix(now());
    });
    for (std::uint32_t p = 1; p < 3; ++p) {
        m.spawn(p, [&, p] {
            for (int i = 0; i < 12; ++i) {
                order.mix(shared.load() * 16 + p);
                delay(30 + random_below(10));
            }
        });
    }
    m.run();
    EXPECT_EQ(fingerprint(m, order),
              (Fingerprint{1043, 62, 7, 0, 0, 4, 0, 20, 20, 0, 0, 0, 3, 0, 17655818952627707709ull}));
}

TEST(PinnedScheduleTest, WaitQueueBlockAndNotify)
{
    Machine m(3, CostModel::alewife(), 14);
    OrderHash order;
    SimWaitQueue q;
    Atomic<std::uint32_t> data(0);
    m.spawn(0, [&] {
        for (int i = 0; i < 6; ++i) {
            delay(400 + random_below(100));
            data.fetch_add(1);
            if (i % 2 == 0)
                q.notify_all();
            else
                q.notify_one();
        }
        // A notify_one may leave one consumer asleep; wake everyone.
        q.notify_all();
    });
    for (std::uint32_t p = 1; p < 3; ++p) {
        m.spawn(p, [&, p] {
            std::uint32_t last = 0;
            while (last < 6) {
                const std::uint32_t e = q.prepare_wait();
                const std::uint32_t v = data.load();
                if (v != last) {
                    q.cancel_wait();
                    last = v;
                    order.mix(now() * 16 + p);
                    continue;
                }
                q.commit_wait(e);
            }
        });
    }
    m.run();
    EXPECT_EQ(fingerprint(m, order),
              (Fingerprint{3938, 30, 15, 0, 0, 12, 0, 0, 0, 0, 9, 9, 3, 0, 119678475964475559ull}));
}

TEST(PinnedScheduleTest, PreemptQuantumOversubscription)
{
    CostModel c = CostModel::alewife();
    c.preempt_quantum = 300;
    Machine m(2, c, 15);
    OrderHash order;
    Atomic<std::uint32_t> turn(0);
    constexpr std::uint32_t kThreads = 6;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        m.spawn(t % 2, [&, t] {
            for (std::uint32_t r = 0; r < 3; ++r) {
                while (turn.load() != r * kThreads + t)
                    pause();
                order.mix(now() * 16 + t);
                turn.fetch_add(1);
            }
        });
    }
    m.run();
    EXPECT_EQ(fingerprint(m, order),
              (Fingerprint{4493, 375, 19, 0, 0, 18, 0, 0, 0, 0, 0, 0, 6, 12, 9125566486314080266ull}));
}

TEST(PinnedScheduleTest, SpawnFromRunningFiber)
{
    Machine m(3, CostModel::alewife(), 16);
    OrderHash order;
    Atomic<std::uint32_t> sum(0);
    m.spawn(0, [&] {
        for (std::uint32_t i = 0; i < 4; ++i) {
            m.spawn(1 + i % 2, [&, i] {
                for (int j = 0; j < 5; ++j) {
                    order.mix(sum.fetch_add(1) * 16 + i);
                    delay(random_below(50));
                }
            });
            delay(10 + random_below(10));
        }
    });
    m.spawn(2, [&] {
        for (int j = 0; j < 10; ++j) {
            order.mix(sum.load() * 16 + 9);
            pause();
        }
    });
    m.run();
    EXPECT_EQ(fingerprint(m, order),
              (Fingerprint{1421, 30, 13, 0, 0, 12, 0, 0, 0, 0, 0, 0, 6, 0, 12039334626094955387ull}));
}

TEST(PinnedScheduleTest, TwoSocketTopology)
{
    constexpr std::uint32_t kProcs = 8;
    Machine m(kProcs, Topology{2, 0}, CostModel::alewife(), 17);
    OrderHash order;
    Atomic<std::uint32_t> counter(0), line(0);
    for (std::uint32_t p = 0; p < kProcs; ++p) {
        m.spawn(p, [&, p] {
            for (int i = 0; i < 10; ++i) {
                order.mix(counter.fetch_add(1) * 16 + p);
                line.store(line.load() + 1);
                delay(random_below(40));
            }
        });
    }
    m.run();
    EXPECT_EQ(fingerprint(m, order),
              (Fingerprint{11319, 240, 236, 73, 99, 234, 0, 0, 0, 0, 0, 0, 8, 0, 1397543986349415957ull}));
}

}  // namespace
}  // namespace reactive::sim
