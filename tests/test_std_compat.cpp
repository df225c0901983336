// std-compatibility conformance for the reactive facades: a
// static_assert-based check that ReactiveMutex satisfies the standard
// Lockable shape (usable with std::lock_guard / std::unique_lock /
// std::scoped_lock), ReactiveSharedMutex the shared_mutex shape
// (std::shared_lock), and ReactiveBarrier the arrive_and_wait() entry
// point — plus native-thread smoke tests that drive each facade
// through the std wrappers under real contention. ("The interface to
// the application program remains constant", thesis Section 1.1 — here
// the interface is the C++ standard library's.)

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "barrier/dissemination_barrier.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/cost_model.hpp"
#include "core/protocol_set.hpp"
#include "core/reactive_mutex.hpp"
#include "platform/native_platform.hpp"
#include "rw/reactive_shared_mutex.hpp"

namespace reactive {
namespace {

// ---- conformance (compile-time) ---------------------------------------

// The standard's named requirements, spelled as concepts so the
// conformance check is a static_assert, not a convention.
template <typename M>
concept StdBasicLockable = requires(M m) {
    { m.lock() } -> std::same_as<void>;
    { m.unlock() } -> std::same_as<void>;
};

template <typename M>
concept StdLockable = StdBasicLockable<M> && requires(M m) {
    { m.try_lock() } -> std::same_as<bool>;
};

template <typename M>
concept StdSharedLockable = StdLockable<M> && requires(M m) {
    { m.lock_shared() } -> std::same_as<void>;
    { m.try_lock_shared() } -> std::same_as<bool>;
    { m.unlock_shared() } -> std::same_as<void>;
};

/// Three-protocol ladder policy with a matching default constructor.
struct Ladder3 : LadderCompetitivePolicy {
    Ladder3()
        : LadderCompetitivePolicy({/*protocols=*/3, /*residual_up=*/150,
                                   /*residual_down=*/15,
                                   /*switch_round_trip=*/8800})
    {
    }
};

using Mutex = ReactiveMutex<NativePlatform>;
using CalMutex = ReactiveMutex<NativePlatform, CalibratedCompetitive3Policy>;
using SharedMutex = ReactiveSharedMutex<NativePlatform>;
using Barrier2 = ReactiveBarrier<NativePlatform>;
using Barrier3 =
    ReactiveBarrier<NativePlatform, Ladder3,
                    ProtocolSet<CentralBarrier<NativePlatform>,
                                CombiningTreeBarrier<NativePlatform>,
                                DisseminationBarrier<NativePlatform>>>;

static_assert(StdLockable<Mutex>);
static_assert(StdLockable<CalMutex>);
static_assert(StdSharedLockable<SharedMutex>);

// The std wrappers themselves must accept the facades.
static_assert(std::is_constructible_v<std::lock_guard<Mutex>, Mutex&>);
static_assert(std::is_constructible_v<std::unique_lock<Mutex>, Mutex&>);
static_assert(
    std::is_constructible_v<std::shared_lock<SharedMutex>, SharedMutex&>);
static_assert(std::is_constructible_v<std::scoped_lock<Mutex, Mutex>,
                                      Mutex&, Mutex&>);

// arrive_and_wait, std::barrier's vocabulary.
static_assert(requires(Barrier2 b) {
    { b.arrive_and_wait() } -> std::same_as<void>;
});
static_assert(requires(Barrier3 b) {
    { b.arrive_and_wait() } -> std::same_as<void>;
});

// ---- runtime smoke (native threads through the std wrappers) ----------

TEST(StdCompatTest, LockGuardExcludesUnderContention)
{
    Mutex mu;
    long counter = 0;
    const int kThreads = 4, kIters = 20000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                std::lock_guard<Mutex> g(mu);
                ++counter;
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(StdCompatTest, UniqueLockTryLockAndDeferredWork)
{
    Mutex mu;
    {
        std::unique_lock<Mutex> l(mu);
        ASSERT_TRUE(l.owns_lock());
        // A held mutex must fail try_lock from another thread.
        std::thread([&] {
            std::unique_lock<Mutex> t(mu, std::try_to_lock);
            EXPECT_FALSE(t.owns_lock());
        }).join();
    }
    std::unique_lock<Mutex> l(mu, std::defer_lock);
    EXPECT_TRUE(l.try_lock());
    l.unlock();
}

TEST(StdCompatTest, ScopedLockAcquiresTwoReactiveMutexes)
{
    Mutex a, b;
    std::scoped_lock g(a, b);  // std::lock's deadlock-avoiding protocol
    std::thread([&] {
        std::unique_lock<Mutex> t(a, std::try_to_lock);
        EXPECT_FALSE(t.owns_lock());
    }).join();
}

TEST(StdCompatTest, SharedLockAdmitsReadersExcludesWriter)
{
    SharedMutex mu;
    long value = 0;
    std::atomic<int> reader_errors{0};
    const int kWriters = 2, kReaders = 2, kIters = 4000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kWriters; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                std::lock_guard<SharedMutex> g(mu);
                ++value;  // exclusive
            }
        });
    }
    for (int t = 0; t < kReaders; ++t) {
        pool.emplace_back([&] {
            long last = 0;
            for (int i = 0; i < kIters; ++i) {
                std::shared_lock<SharedMutex> g(mu);
                if (value < last)
                    reader_errors.fetch_add(1);  // monotone under writers
                last = value;
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(value, static_cast<long>(kWriters) * kIters);
    EXPECT_EQ(reader_errors.load(), 0);
}

TEST(StdCompatTest, TryLockSharedRespectsWriter)
{
    SharedMutex mu;
    EXPECT_TRUE(mu.try_lock_shared());
    EXPECT_TRUE(mu.try_lock_shared());  // readers share
    mu.unlock_shared();
    mu.unlock_shared();
    mu.lock();
    std::thread([&] { EXPECT_FALSE(mu.try_lock_shared()); }).join();
    mu.unlock();
}

/// Policy pinning the rwlock in the queue protocol: the first
/// slow-path write switches simple -> queue and nothing switches back.
struct PinQueuePolicy {
    std::uint32_t next_protocol(ProtocolSignal s)
    {
        return switch_if(s, s.protocol == 0);
    }
    void on_switch() {}
};

TEST(StdCompatTest, TryLockStaysUsableInQueueMode)
{
    // Regression: try_lock()/try_lock_shared() must be able to win a
    // momentarily free lock in *either* protocol — a queue-mode lock
    // whose tries always fail would livelock std::lock /
    // std::scoped_lock over several reactive mutexes for as long as
    // the queue protocol persists.
    using QueueMutex = ReactiveSharedMutex<NativePlatform, PinQueuePolicy>;
    ReactiveRwLockParams rp;
    rp.optimistic_simple = false;  // route writes through the policy
    QueueMutex a(rp), b(rp);
    for (QueueMutex* m : {&a, &b}) {
        m->lock();
        m->unlock();  // the release performs the simple -> queue switch
        ASSERT_EQ(m->rw_lock().mode(), QueueMutex::RwLock::Mode::kQueue);
    }
    EXPECT_TRUE(a.try_lock());
    std::thread([&] { EXPECT_FALSE(a.try_lock_shared()); }).join();
    a.unlock();
    EXPECT_TRUE(a.try_lock_shared());
    a.unlock_shared();
    {
        std::scoped_lock g(a, b);  // std::lock's try-based protocol
    }
    EXPECT_EQ(a.rw_lock().mode(), QueueMutex::RwLock::Mode::kQueue);
}

TEST(StdCompatTest, ArriveAndWaitSurvivesBarrierAddressReuse)
{
    // Regression: the facade's thread-local Nodes are keyed by a
    // unique per-barrier token, not the address. A thread that
    // participated in a destroyed barrier must get a *fresh* node for
    // a successor barrier constructed at the same storage (barrier
    // Nodes are bound to their barrier for life — a stale node's sense
    // would deadlock the successor's first episode or let it pass
    // unordered).
    std::optional<Barrier2> bar;
    for (int generation = 0; generation < 4; ++generation) {
        bar.emplace(2);  // same std::optional storage every generation
        // The main thread is the reused participant; the helper is
        // fresh each generation (fresh thread, fresh slot table).
        std::thread helper([&] {
            for (int e = 0; e < 50; ++e)
                bar->arrive_and_wait();
        });
        for (int e = 0; e < 50; ++e)
            bar->arrive_and_wait();
        helper.join();
        bar.reset();
    }
    SUCCEED();
}

TEST(StdCompatTest, ArriveAndWaitRunsEpisodesOnBothSets)
{
    // One participant == one thread (the facade's thread-local node);
    // episode ordering is the regular torture property.
    for (const int which : {2, 3}) {
        const std::uint32_t threads =
            std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
        std::vector<std::atomic<std::uint32_t>> progress(threads);
        for (auto& a : progress)
            a.store(0);
        std::atomic<int> violations{0};
        Barrier2 b2(threads);
        Barrier3 b3(threads);
        std::vector<std::thread> pool;
        for (std::uint32_t t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                for (std::uint32_t e = 0; e < 200; ++e) {
                    progress[t].store(e + 1, std::memory_order_relaxed);
                    if (which == 2)
                        b2.arrive_and_wait();
                    else
                        b3.arrive_and_wait();
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
        EXPECT_EQ(violations.load(), 0) << "set size " << which;
    }
}

}  // namespace
}  // namespace reactive
