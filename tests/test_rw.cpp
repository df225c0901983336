// Correctness tests for the reader-writer lock subsystem (src/rw/):
// writer exclusion, reader-reader concurrency, no lost updates under
// mixed load, and protocol-switch correctness of the reactive rwlock,
// on both the native platform (real threads) and the simulated
// multiprocessor (deterministic high-contention interleavings).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/policy.hpp"
#include "platform/native_platform.hpp"
#include "rw/queue_rw_lock.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "rw/rw_concepts.hpp"
#include "rw/simple_rw_lock.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"

namespace reactive {

/**
 * White-box driver for QueueRwLock::retract_or_commit_write (friend of
 * the lock): the helper resolves the drained-reader-group race, whose
 * decisive interleavings happen *inside* one try_start_write call and
 * are therefore unreachable from any sequence of complete public calls
 * on the deterministic simulator. The peer installs the exact
 * post-handshake state each branch is defined for and drives the
 * helper directly.
 */
struct QueueRwLockTestPeer {
    template <typename L>
    using Node = typename L::Node;

    /// State after try_start_write won the empty tail and registered
    /// as the waiting writer, with @p readers still inside.
    template <typename L>
    static void install_registered_writer(L& lock, Node<L>& w,
                                          std::uint32_t readers)
    {
        w.kind = L::Kind::kWriter;
        w.next.store(nullptr, std::memory_order_relaxed);
        w.state.store(0, std::memory_order_relaxed);
        lock.tail_.store(&w, std::memory_order_relaxed);
        lock.next_writer_.store(&w, std::memory_order_relaxed);
        lock.reader_count_.store(readers | L::kWriterWaiting,
                                 std::memory_order_relaxed);
    }

    /// The last reader leaving (end_read's count drop, without the
    /// queue-node half): claims and grants a waiting writer.
    template <typename L>
    static void leave_as_reader(L& lock)
    {
        lock.leave_group(/*hand_off=*/false);
    }

    /// What a competing writer's tail exchange does: moves the tail to
    /// @p s with @p w as its (not yet linked) predecessor.
    template <typename L>
    static void enqueue_successor(L& lock, Node<L>& s)
    {
        s.kind = L::Kind::kWriter;
        s.next.store(nullptr, std::memory_order_relaxed);
        s.state.store(0, std::memory_order_relaxed);
        lock.tail_.store(&s, std::memory_order_relaxed);
    }

    template <typename L>
    static auto retract_or_commit_write(L& lock, Node<L>& w)
    {
        return lock.retract_or_commit_write(w);
    }

    template <typename L>
    static Node<L>* tail(L& lock)
    {
        return lock.tail_.load(std::memory_order_relaxed);
    }

    template <typename L>
    static bool writer_waiting(L& lock)
    {
        return (lock.reader_count_.load(std::memory_order_relaxed) &
                L::kWriterWaiting) != 0;
    }
};

namespace {

using sim::SimPlatform;

static_assert(RwLock<SimpleRwLock<NativePlatform>>);
static_assert(RwLock<QueueRwLock<NativePlatform>>);
static_assert(RwLock<ReactiveRwLock<NativePlatform>>);
static_assert(RwLock<SimpleRwLock<SimPlatform>>);
static_assert(RwLock<QueueRwLock<SimPlatform>>);
static_assert(RwLock<ReactiveRwLock<SimPlatform>>);

/// Test-only policy that demands a protocol change every @p k writer
/// acquisitions in either protocol: maximizes switch frequency so the
/// switch paths run constantly under load.
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

// ---- native-thread exclusion / lost-update tests ----------------------

/**
 * Real-thread torture: writers increment a plain counter (lost updates
 * detectable by the final count); readers verify they never observe a
 * torn/mid-write state and that no writer runs concurrently.
 */
template <typename RW>
void native_rw_torture(std::uint32_t writers, std::uint32_t readers,
                       std::uint32_t iters)
{
    RW lock;
    long a = 0, b = 0;  // writer-updated pair; invariant a == b
    std::atomic<bool> violation{false};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < writers; ++t) {
        pool.emplace_back([&] {
            for (std::uint32_t i = 0; i < iters; ++i) {
                typename RW::Node n;
                lock.lock_write(n);
                const long cur = a;
                a = cur + 1;
                b = cur + 1;  // a!=b here is visible to readers
                lock.unlock_write(n);
            }
        });
    }
    for (std::uint32_t t = 0; t < readers; ++t) {
        pool.emplace_back([&] {
            for (std::uint32_t i = 0; i < iters; ++i) {
                typename RW::Node n;
                lock.lock_read(n);
                if (a != b)
                    violation.store(true);
                lock.unlock_read(n);
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_FALSE(violation.load());
    EXPECT_EQ(a, static_cast<long>(writers) * iters);
    EXPECT_EQ(b, static_cast<long>(writers) * iters);
}

template <typename RW>
class NativeRwTest : public ::testing::Test {};

using NativeRwTypes =
    ::testing::Types<SimpleRwLock<NativePlatform>, QueueRwLock<NativePlatform>,
                     ReactiveRwLock<NativePlatform>,
                     ReactiveRwLock<NativePlatform, Competitive3Policy>,
                     ReactiveRwLock<NativePlatform, HysteresisPolicy>,
                     ReactiveRwLock<NativePlatform, MetronomePolicy>>;
TYPED_TEST_SUITE(NativeRwTest, NativeRwTypes);

TYPED_TEST(NativeRwTest, NoLostUpdatesUnderThreads)
{
    const std::uint32_t hw =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    native_rw_torture<TypeParam>(hw, hw, 300);
}

TYPED_TEST(NativeRwTest, SingleThreadedAllPaths)
{
    TypeParam lock;
    for (int i = 0; i < 1000; ++i) {
        typename TypeParam::Node r, w;
        lock.lock_read(r);
        lock.unlock_read(r);
        lock.lock_write(w);
        lock.unlock_write(w);
    }
    SUCCEED();
}

TYPED_TEST(NativeRwTest, ScopedGuards)
{
    TypeParam lock;
    int x = 0;
    {
        ScopedWriteLock guard(lock);
        x = 1;
    }
    {
        ScopedReadLock guard(lock);
        EXPECT_EQ(x, 1);
    }
    {
        ScopedWriteLock guard(lock);  // must be acquirable again
        x = 2;
    }
    EXPECT_EQ(x, 2);
}

// ---- simulated-machine property tests ---------------------------------

struct RwInvariants {
    int readers_inside = 0;
    int writers_inside = 0;
    int max_concurrent_readers = 0;
    int violations = 0;
    long writes = 0;
    long reads = 0;
};

/**
 * Mixed-load torture on the simulated machine: every acquisition checks
 * the exclusion invariants (a writer inside means exactly one writer
 * and zero readers; readers inside mean zero writers) with simulated
 * delays inside the critical/shared sections so the scheduler
 * interleaves aggressively.
 */
template <typename RW>
RwInvariants sim_rw_torture(std::shared_ptr<RW> lock, std::uint32_t procs,
                            std::uint32_t iters, std::uint32_t read_permille,
                            std::uint64_t seed = 1,
                            std::uint32_t read_hold = 20)
{
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto inv = std::make_shared<RwInvariants>();
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t i = 0; i < iters; ++i) {
                typename RW::Node n;
                if (sim::random_below(1000) < read_permille) {
                    lock->lock_read(n);
                    const int r = ++inv->readers_inside;
                    inv->max_concurrent_readers =
                        std::max(inv->max_concurrent_readers, r);
                    if (inv->writers_inside != 0)
                        ++inv->violations;
                    sim::delay(read_hold + sim::random_below(60));
                    if (inv->writers_inside != 0)
                        ++inv->violations;
                    --inv->readers_inside;
                    ++inv->reads;
                    lock->unlock_read(n);
                } else {
                    lock->lock_write(n);
                    if (++inv->writers_inside != 1 ||
                        inv->readers_inside != 0)
                        ++inv->violations;
                    sim::delay(20 + sim::random_below(60));
                    if (inv->writers_inside != 1 ||
                        inv->readers_inside != 0)
                        ++inv->violations;
                    --inv->writers_inside;
                    ++inv->writes;
                    lock->unlock_write(n);
                }
                sim::delay(sim::random_below(150));
            }
        });
    }
    m.run();
    return *inv;
}

template <typename RW>
class SimRwTest : public ::testing::Test {};

using SimRwTypes =
    ::testing::Types<SimpleRwLock<SimPlatform>, QueueRwLock<SimPlatform>,
                     ReactiveRwLock<SimPlatform>,
                     ReactiveRwLock<SimPlatform, Competitive3Policy>,
                     ReactiveRwLock<SimPlatform, HysteresisPolicy>,
                     ReactiveRwLock<SimPlatform, MetronomePolicy>>;
TYPED_TEST_SUITE(SimRwTest, SimRwTypes);

TYPED_TEST(SimRwTest, ExclusionUnderMixedHighContention)
{
    auto lock = std::make_shared<TypeParam>();
    const RwInvariants inv =
        sim_rw_torture(lock, 16, 40, /*read_permille=*/600);
    EXPECT_EQ(inv.violations, 0);
    EXPECT_EQ(inv.reads + inv.writes, 16 * 40);
}

TYPED_TEST(SimRwTest, ExclusionWriteHeavyManySeeds)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto lock = std::make_shared<TypeParam>();
        const RwInvariants inv =
            sim_rw_torture(lock, 8, 30, /*read_permille=*/200, seed);
        EXPECT_EQ(inv.violations, 0) << "seed " << seed;
        EXPECT_EQ(inv.reads + inv.writes, 8 * 30) << "seed " << seed;
    }
}

TYPED_TEST(SimRwTest, ExclusionReadMostlyManySeeds)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto lock = std::make_shared<TypeParam>();
        const RwInvariants inv =
            sim_rw_torture(lock, 12, 30, /*read_permille=*/950, seed);
        EXPECT_EQ(inv.violations, 0) << "seed " << seed;
        EXPECT_EQ(inv.reads + inv.writes, 12 * 30) << "seed " << seed;
    }
}

TYPED_TEST(SimRwTest, ReadersActuallyOverlap)
{
    // All-reader load with holds much longer than the acquisition cost
    // (which serializes at the lock's home directory): a reader-writer
    // lock must admit them concurrently (a mutex in disguise would show
    // max 1; the queue protocol's serial grant propagation costs ~a
    // hundred cycles per reader, hence the generous hold).
    auto lock = std::make_shared<TypeParam>();
    const RwInvariants inv = sim_rw_torture(lock, 12, 25,
                                            /*read_permille=*/1000,
                                            /*seed=*/1, /*read_hold=*/2000);
    EXPECT_EQ(inv.violations, 0);
    EXPECT_GT(inv.max_concurrent_readers, 4);
}

TYPED_TEST(SimRwTest, WriterNotStarvedByReaderStream)
{
    // A continuous reader stream with one writer: the writer must get
    // in (the simulation deadlock-detects if it never does) and the
    // invariants must hold throughout.
    auto lock = std::make_shared<TypeParam>();
    sim::Machine m(9, sim::CostModel::alewife(), 7);
    auto inv = std::make_shared<RwInvariants>();
    for (std::uint32_t p = 0; p < 8; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t i = 0; i < 60; ++i) {
                typename TypeParam::Node n;
                lock->lock_read(n);
                ++inv->readers_inside;
                if (inv->writers_inside != 0)
                    ++inv->violations;
                sim::delay(40);
                --inv->readers_inside;
                lock->unlock_read(n);
                sim::delay(sim::random_below(40));
            }
        });
    }
    m.spawn(8, [=] {
        for (std::uint32_t i = 0; i < 10; ++i) {
            typename TypeParam::Node n;
            lock->lock_write(n);
            if (++inv->writers_inside != 1 || inv->readers_inside != 0)
                ++inv->violations;
            sim::delay(30);
            --inv->writers_inside;
            ++inv->writes;
            lock->unlock_write(n);
            sim::delay(sim::random_below(200));
        }
    });
    m.run();
    EXPECT_EQ(inv->violations, 0);
    EXPECT_EQ(inv->writes, 10);
}

// ---- queue rwlock specifics -------------------------------------------

// Writers are granted in FIFO arrival order (the fairness the queue
// protocol buys over the centralized one).
TEST(QueueRwFairnessTest, WritersFifoGrantOrder)
{
    using L = QueueRwLock<SimPlatform>;
    sim::Machine m(8);
    auto lock = std::make_shared<L>();
    auto arrival = std::make_shared<std::vector<int>>();
    auto grant = std::make_shared<std::vector<int>>();
    for (std::uint32_t p = 0; p < 8; ++p) {
        m.spawn(p, [=] {
            sim::delay(100 * (p + 1));  // staggered deterministic arrivals
            typename L::Node n;
            arrival->push_back(static_cast<int>(p));
            lock->lock_write(n);
            grant->push_back(static_cast<int>(p));
            sim::delay(500);  // hold long enough that all later procs queue
            lock->unlock_write(n);
        });
    }
    m.run();
    EXPECT_EQ(*grant, *arrival);
}

// A reader group arriving behind a waiting writer queues behind it and
// is then granted together once the writer leaves.
TEST(QueueRwFairnessTest, ReaderGroupBatchesBehindWriter)
{
    using L = QueueRwLock<SimPlatform>;
    sim::Machine m(6);
    auto lock = std::make_shared<L>();
    auto inv = std::make_shared<RwInvariants>();
    // p0: reader holding; p1: writer queues; p2-5: readers queue behind.
    m.spawn(0, [=] {
        typename L::Node n;
        lock->lock_read(n);
        sim::delay(800);
        lock->unlock_read(n);
    });
    m.spawn(1, [=] {
        sim::delay(100);
        typename L::Node n;
        lock->lock_write(n);
        if (++inv->writers_inside != 1 || inv->readers_inside != 0)
            ++inv->violations;
        sim::delay(300);
        --inv->writers_inside;
        lock->unlock_write(n);
    });
    for (std::uint32_t p = 2; p < 6; ++p) {
        m.spawn(p, [=] {
            sim::delay(200 + 10 * p);
            typename L::Node n;
            lock->lock_read(n);
            const int r = ++inv->readers_inside;
            inv->max_concurrent_readers =
                std::max(inv->max_concurrent_readers, r);
            if (inv->writers_inside != 0)
                ++inv->violations;
            sim::delay(2500);  // long hold: outlasts the serial grant
                               // propagation down the reader chain
            --inv->readers_inside;
            lock->unlock_read(n);
        });
    }
    m.run();
    EXPECT_EQ(inv->violations, 0);
    // The four trailing readers overlap once the writer is done.
    EXPECT_EQ(inv->max_concurrent_readers, 4);
}

// ---- queue rwlock try paths (std try_lock facade backing) -------------

// A reader group can drain its queue presence while a member is still
// inside: A wins the empty tail, B joins A, B (the tail) leaves —
// clearing the tail with A's read-side critical section still open.
// try_start_write must fail fast on that state, and the lock must be
// cleanly acquirable once A leaves.
TEST(QueueRwTryTest, TryWriteFailsFastWithDrainedReaderGroupInside)
{
    using L = QueueRwLock<NativePlatform>;
    L lock;
    typename L::Node a, b;
    EXPECT_EQ(lock.start_read(a), L::Outcome::kAcquiredEmpty);
    EXPECT_EQ(lock.start_read(b), L::Outcome::kAcquiredWaited);  // joins A
    lock.end_read(b);  // tail cleared; A still inside
    EXPECT_EQ(lock.reader_count(), 1u);
    typename L::Node w;
    EXPECT_EQ(lock.try_start_write(w), L::Outcome::kInvalid);
    lock.end_read(a);
    EXPECT_EQ(lock.try_start_write(w), L::Outcome::kAcquiredEmpty);
    lock.end_write(w);
    // Fully released: a reader can win the empty tail again.
    EXPECT_EQ(lock.start_read(a), L::Outcome::kAcquiredEmpty);
    lock.end_read(a);
}

// Latency canary: a writer fiber hammers try_start_write across the
// drained-group dance (the state where the tail is empty but a reader
// hold is open for kReadHold cycles) at many seeds. Every try must
// complete in a bounded handful of memory operations; any variant of
// try_start_write that can reach the empty-tail handshake and then *wait*
// (instead of retracting) pays ~kReadHold the moment the handshake
// sees the reader and fails the bound.
TEST(QueueRwTryTest, TryWriteNeverWaitsOutReaderCriticalSections)
{
    using L = QueueRwLock<SimPlatform>;
    constexpr std::uint64_t kReadHold = 20000;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        sim::Machine m(2, sim::CostModel::alewife(), seed);
        auto lock = std::make_shared<L>();
        auto max_try = std::make_shared<std::uint64_t>(0);
        auto tries = std::make_shared<long>(0);
        auto wins = std::make_shared<long>(0);
        auto done = std::make_shared<bool>(false);
        m.spawn(0, [=] {
            // The drained-group dance, from one fiber: all three steps
            // are non-blocking, so it needs no partner cooperation.
            for (std::uint32_t i = 0; i < 15; ++i) {
                typename L::Node a, b;
                (void)lock->start_read(a);
                (void)lock->start_read(b);  // joins A (A is active)
                lock->end_read(b);          // clears the tail
                sim::delay(kReadHold);      // A's critical section
                lock->end_read(a);
                sim::delay(sim::random_below(300));
            }
            *done = true;
        });
        m.spawn(1, [=] {
            while (!*done) {
                typename L::Node w;
                const std::uint64_t t0 = SimPlatform::now();
                const auto out = lock->try_start_write(w);
                const std::uint64_t dt = SimPlatform::now() - t0;
                *max_try = std::max(*max_try, dt);
                ++*tries;
                if (out != L::Outcome::kInvalid) {
                    ++*wins;
                    lock->end_write(w);
                }
                sim::delay(sim::random_below(200));
            }
        });
        m.run();
        EXPECT_GT(*tries, 0) << "seed " << seed;
        // A try is a handful of memory operations; waiting out a
        // reader hold would cost ~kReadHold.
        EXPECT_LT(*max_try, kReadHold / 4) << "seed " << seed;
    }
}

// White-box branch coverage of retract_or_commit_write (the decisive
// interleavings happen inside one try_start_write call and cannot be
// reproduced by complete public calls; see QueueRwLockTestPeer).

// Branch 1: the handshake saw a drained reader group still inside and
// nothing else intervened — the node fully retracts (tail restored,
// writer-waiting flag withdrawn) and the try fails clean.
TEST(QueueRwTryTest, RetractUnwindsTailAndWriterRegistration)
{
    using L = QueueRwLock<NativePlatform>;
    using Peer = QueueRwLockTestPeer;
    L lock;
    typename L::Node w;
    Peer::install_registered_writer(lock, w, /*readers=*/1);
    EXPECT_EQ(Peer::retract_or_commit_write(lock, w), L::Outcome::kInvalid);
    EXPECT_EQ(Peer::tail(lock), nullptr);
    EXPECT_FALSE(Peer::writer_waiting(lock));
    EXPECT_EQ(lock.reader_count(), 1u);
    // The retracted node was not granted and is clean for reuse; the
    // reader still inside leaves without granting anyone.
    EXPECT_EQ(w.state.load(), 0u);
    Peer::leave_as_reader(lock);
    EXPECT_EQ(w.state.load(), 0u);
}

// Branch 2: the last leaving reader claimed the node before the
// retraction — the GO signal is in flight, so the attempt commits and
// owns the lock.
TEST(QueueRwTryTest, RetractCommitsWhenReaderAlreadyClaimedTheNode)
{
    using L = QueueRwLock<NativePlatform>;
    using Peer = QueueRwLockTestPeer;
    L lock;
    typename L::Node w;
    Peer::install_registered_writer(lock, w, /*readers=*/1);
    Peer::leave_as_reader(lock);
    EXPECT_FALSE(Peer::writer_waiting(lock));
    EXPECT_EQ(Peer::retract_or_commit_write(lock, w),
              L::Outcome::kAcquiredWaited);
    lock.end_write(w);
    EXPECT_EQ(Peer::tail(lock), nullptr);
    typename L::Node n;  // fully released: publicly acquirable again
    EXPECT_EQ(lock.try_start_write(n), L::Outcome::kAcquiredEmpty);
    lock.end_write(n);
}

// Branch 3: a successor enqueued behind the node, so the tail cannot be
// retracted — the attempt redoes the empty-tail handshake and takes the
// handoff once the reader inside leaves, and the normal release chain
// still reaches the successor. The reader leaves from another thread
// at an arbitrary point of the attempt; every interleaving must end
// with the node granted exactly once.
TEST(QueueRwTryTest, RetractCommitsWhenSuccessorMakesItImpossible)
{
    using L = QueueRwLock<NativePlatform>;
    using Peer = QueueRwLockTestPeer;
    L lock;
    typename L::Node w, s;
    Peer::install_registered_writer(lock, w, /*readers=*/1);
    Peer::enqueue_successor(lock, s);
    auto out = L::Outcome::kInvalid;
    std::thread attempt([&] { out = Peer::retract_or_commit_write(lock, w); });
    Peer::leave_as_reader(lock);
    attempt.join();
    EXPECT_EQ(out, L::Outcome::kAcquiredWaited);
    EXPECT_NE(w.state.load() & L::kGoBit, 0u);
    EXPECT_EQ(lock.reader_count(), 0u);
    EXPECT_FALSE(Peer::writer_waiting(lock));
    w.next.store(&s);  // the successor finishes linking in
    lock.end_write(w);
    EXPECT_NE(s.state.load() & L::kGoBit, 0u);  // handoff reached it
    lock.end_write(s);
    EXPECT_EQ(Peer::tail(lock), nullptr);
}

// Native torture over every try/blocking combination: a try-writer and
// a blocking writer racing reader pairs that continually form and
// partially drain groups. Exercises retraction (tail CAS back), the
// commit-on-successor path, and reuse of the retracted node, under
// TSan in CI.
TEST(QueueRwTryTest, TryWriteStormKeepsExclusionOnNativeThreads)
{
    using L = QueueRwLock<NativePlatform>;
    L lock;
    long a = 0, b = 0;  // writer-updated pair; invariant a == b
    std::atomic<bool> violation{false};
    std::atomic<long> try_wins{0};
    std::atomic<bool> stop{false};
    constexpr std::uint32_t kIters = 2000;
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < 2; ++t) {
        pool.emplace_back([&] {
            // Single non-nested reads: a reader must never hold one
            // read lock while queuing for another — behind the
            // blocking writer that nesting deadlocks (the writer
            // waits for the held read to drain, the nested read waits
            // for the writer). Drained-group states still form
            // whenever the two readers overlap and the later-queued
            // one leaves first.
            for (std::uint32_t i = 0; i < kIters; ++i) {
                typename L::Node r;
                lock.start_read(r);
                if (a != b)
                    violation.store(true);
                lock.end_read(r);
            }
        });
    }
    pool.emplace_back([&] {  // blocking writer
        for (std::uint32_t i = 0; i < kIters; ++i) {
            typename L::Node n;
            lock.lock_write(n);
            const long cur = a;
            a = cur + 1;
            b = cur + 1;
            lock.unlock_write(n);
        }
    });
    pool.emplace_back([&] {  // try-writer
        while (!stop.load(std::memory_order_relaxed)) {
            typename L::Node n;
            if (lock.try_start_write(n) != L::Outcome::kInvalid) {
                const long cur = a;
                a = cur + 1;
                b = cur + 1;
                try_wins.fetch_add(1, std::memory_order_relaxed);
                lock.end_write(n);
            }
        }
    });
    for (std::size_t t = 0; t + 1 < pool.size(); ++t)
        pool[t].join();
    stop.store(true);
    pool.back().join();
    EXPECT_FALSE(violation.load());
    EXPECT_EQ(a, static_cast<long>(kIters) + try_wins.load());
    EXPECT_EQ(b, a);
}

// ---- queue rwlock: reader-group handoff under preemption --------------

/**
 * Read-delay-read overlap check on an oversubscribed, preempting
 * machine: 3 processors, 4 threads (processor 0 runs two), quantum 200
 * cycles, each thread alternating phases of 95% and 25% reads. A
 * reader that is descheduled between dropping the last reader unit of
 * its group and claiming the writer behind it must not grant a writer
 * queued behind a *newer* reader group; a torn read (the two halves of
 * a writer's update seen apart) shows it did. Returns the torn reads.
 */
template <typename RW>
long preempted_rw_torn_reads(std::uint64_t seed)
{
    sim::CostModel costs = sim::CostModel::alewife();
    costs.preempt_quantum = 200;
    sim::Machine m(3, costs, seed);
    auto lock = std::make_shared<RW>();
    struct Shared {
        long a = 0, b = 0, torn = 0;
    };
    auto sh = std::make_shared<Shared>();
    for (std::uint32_t t = 0; t < 4; ++t) {
        m.spawn(t % 3, [=] {
            for (std::uint32_t ph = 0; ph < 4; ++ph) {
                const std::uint32_t permille = ph % 2 == 0 ? 950 : 250;
                for (std::uint32_t i = 0; i < 40; ++i) {
                    typename RW::Node n;
                    if (sim::random_below(1000) < permille) {
                        lock->lock_read(n);
                        const long a = sh->a;
                        sim::delay(20 + sim::random_below(40));
                        if (a != sh->b)
                            ++sh->torn;
                        lock->unlock_read(n);
                    } else {
                        lock->lock_write(n);
                        const long v = sh->a + 1;
                        sh->a = v;
                        sim::delay(20 + sim::random_below(40));
                        sh->b = v;
                        lock->unlock_write(n);
                    }
                    sim::delay(sim::random_below(300));
                }
            }
        });
    }
    m.run();
    return sh->torn;
}

template <typename RW>
class PreemptedRwTest : public ::testing::Test {};

using PreemptedRwTypes =
    ::testing::Types<QueueRwLock<SimPlatform>, ReactiveRwLock<SimPlatform>>;
TYPED_TEST_SUITE(PreemptedRwTest, PreemptedRwTypes);

// Regression for end_read's two-step handoff (decrement to zero, then
// claim next_writer_ in a separate exchange): each seed below tore a
// read on that code, with the standalone queue lock (546-907) or the
// reactive lock (23-825). The decrement and the claim are now one RMW
// on the count word, so none may tear.
TYPED_TEST(PreemptedRwTest, LateReaderNeverGrantsAWriterOfANewerGroup)
{
    for (std::uint64_t seed :
         {23, 38, 519, 546, 584, 588, 694, 718, 762, 815, 825, 907}) {
        EXPECT_EQ(preempted_rw_torn_reads<TypeParam>(seed), 0)
            << "seed " << seed;
    }
}

// ---- reactive rwlock: protocol-switch correctness ---------------------

TEST(ReactiveRwSocketTest, TryLockWriteRecordsTheWriterSocket)
{
    // A try_lock_write winner is the new writer: the next slow writer's
    // socket-crossing bit is measured against it, not a stale writer.
    struct CrossRecorder {
        bool last_cross = true;
        std::uint32_t sampled = 0;
        std::uint32_t next_protocol(ProtocolSignal s) { return s.protocol; }
        std::uint32_t next_protocol(ProtocolSignal s, std::uint64_t,
                                    bool cross = false)
        {
            last_cross = cross;
            ++sampled;
            return s.protocol;
        }
        void on_switch() {}
        void on_switch_cycles(std::uint64_t) {}
    };
    static_assert(SocketAwareSelect<CrossRecorder>);
    using RW = ReactiveRwLock<SimPlatform, CrossRecorder>;
    sim::Machine m(2, sim::Topology{2, 0}, sim::CostModel::alewife(), 1);
    ReactiveRwLockParams params;
    params.optimistic_simple = false;
    auto rw = std::make_shared<RW>(params, CrossRecorder{});
    auto tried = std::make_shared<bool>(false);
    m.spawn(0, [=] {
        typename RW::Node n;
        rw->lock_write(n);
        rw->unlock_write(n);
    });
    m.spawn(1, [=] {
        sim::delay(5000);
        typename RW::Node n;
        *tried = rw->try_lock_write(n);
        if (*tried)
            rw->unlock_write(n);
        rw->lock_write(n);
        rw->unlock_write(n);
    });
    m.run();
    EXPECT_TRUE(*tried);
    EXPECT_EQ(rw->policy().sampled, 2u);
    EXPECT_FALSE(rw->policy().last_cross);
}

TEST(ReactiveRwSwitchTest, ConvergesToQueueUnderWriteContention)
{
    using L = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy>;
    // A huge empty-streak threshold pins the lock in queue mode once it
    // gets there (otherwise the last fiber finishing alone could
    // legitimately streak the protocol back to simple).
    auto lock = std::make_shared<L>(ReactiveRwLockParams{},
                                    AlwaysSwitchPolicy(1u << 30));
    EXPECT_EQ(lock->mode(), L::Mode::kSimple);
    const RwInvariants inv =
        sim_rw_torture(lock, 16, 40, /*read_permille=*/0);
    EXPECT_EQ(inv.violations, 0);
    EXPECT_GT(lock->protocol_changes(), 0u);
    EXPECT_EQ(lock->mode(), L::Mode::kQueue);
}

TEST(ReactiveRwSwitchTest, ConvergesBackToSimpleWhenUncontended)
{
    using L = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy>;
    auto lock = std::make_shared<L>();
    // Phase 1: heavy write contention drives it into queue mode. (The
    // run may legitimately end back in simple mode if the last fiber
    // finishes alone and streaks the protocol back; all we need is
    // that a switch happened.)
    (void)sim_rw_torture(lock, 16, 30, /*read_permille=*/0);
    ASSERT_GE(lock->protocol_changes(), 1u);
    // Phase 2: a lone writer sees an empty queue every time; the
    // empty-streak signal must bring the protocol back to simple.
    (void)sim_rw_torture(lock, 1, 30, /*read_permille=*/0, /*seed=*/2);
    EXPECT_EQ(lock->mode(), L::Mode::kSimple);
}

TEST(ReactiveRwSwitchTest, ForcedSwitchStormKeepsInvariants)
{
    // MetronomePolicy forces a protocol change every 2nd writer
    // acquisition while readers stream through both protocols: every
    // switch happens with readers arriving, spinning, and retrying
    // through the dispatcher. Exclusion must survive all of it.
    using L = ReactiveRwLock<SimPlatform, MetronomePolicy>;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto lock = std::make_shared<L>(ReactiveRwLockParams{},
                                        MetronomePolicy(2));
        const RwInvariants inv =
            sim_rw_torture(lock, 12, 40, /*read_permille=*/700, seed);
        EXPECT_EQ(inv.violations, 0) << "seed " << seed;
        EXPECT_EQ(inv.reads + inv.writes, 12 * 40) << "seed " << seed;
        EXPECT_GT(lock->protocol_changes(), 4u) << "seed " << seed;
    }
}

TEST(ReactiveRwSwitchTest, ForcedSwitchStormOnNativeThreads)
{
    using L = ReactiveRwLock<NativePlatform, MetronomePolicy>;
    // Optimistic fast-path wins bypass the policy (by design); disable
    // it so switches happen on a deterministic schedule.
    ReactiveRwLockParams params;
    params.optimistic_simple = false;
    L lock(params, MetronomePolicy(2));
    const std::uint32_t hw =
        std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
    long a = 0, b = 0;
    std::atomic<bool> violation{false};
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < hw; ++t) {
        pool.emplace_back([&] {
            for (std::uint32_t i = 0; i < 400; ++i) {
                typename L::Node n;
                if (i % 3 == 0) {
                    lock.lock_write(n);
                    const long cur = a;
                    a = cur + 1;
                    b = cur + 1;
                    lock.unlock_write(n);
                } else {
                    lock.lock_read(n);
                    if (a != b)
                        violation.store(true);
                    lock.unlock_read(n);
                }
            }
        });
    }
    for (auto& th : pool)
        th.join();
    EXPECT_FALSE(violation.load());
    EXPECT_GT(lock.protocol_changes(), 0u);
    const long writes_expected = static_cast<long>(hw) * ((400 + 2) / 3);
    EXPECT_EQ(a, writes_expected);
}

TEST(ReactiveRwSwitchTest, ReadersActiveDuringSwitchRetryCorrectly)
{
    // Deterministic forced-switch scenario: a writer whose release
    // performs a simple->queue change while reader fibers are mid-spin
    // on the simple protocol, then the reverse change with readers
    // queued on the queue protocol. Every reader must complete exactly
    // once and exclusion must hold.
    using L = ReactiveRwLock<SimPlatform, MetronomePolicy>;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        // Optimistic fast-path wins bypass the policy; disable it so
        // *every* writer release performs a protocol change.
        ReactiveRwLockParams params;
        params.optimistic_simple = false;
        auto lock = std::make_shared<L>(params, MetronomePolicy(1));
        sim::Machine m(10, sim::CostModel::alewife(), seed);
        auto inv = std::make_shared<RwInvariants>();
        for (std::uint32_t p = 0; p < 8; ++p) {
            m.spawn(p, [=] {
                for (std::uint32_t i = 0; i < 30; ++i) {
                    typename L::Node n;
                    lock->lock_read(n);
                    const int r = ++inv->readers_inside;
                    inv->max_concurrent_readers =
                        std::max(inv->max_concurrent_readers, r);
                    if (inv->writers_inside != 0)
                        ++inv->violations;
                    sim::delay(10 + sim::random_below(30));
                    --inv->readers_inside;
                    ++inv->reads;
                    lock->unlock_read(n);
                    sim::delay(sim::random_below(60));
                }
            });
        }
        for (std::uint32_t p = 8; p < 10; ++p) {
            m.spawn(p, [=] {
                for (std::uint32_t i = 0; i < 25; ++i) {
                    typename L::Node n;
                    lock->lock_write(n);
                    if (++inv->writers_inside != 1 ||
                        inv->readers_inside != 0)
                        ++inv->violations;
                    sim::delay(10 + sim::random_below(30));
                    --inv->writers_inside;
                    ++inv->writes;
                    lock->unlock_write(n);
                    sim::delay(sim::random_below(100));
                }
            });
        }
        m.run();
        EXPECT_EQ(inv->violations, 0) << "seed " << seed;
        EXPECT_EQ(inv->reads, 8 * 30) << "seed " << seed;
        EXPECT_EQ(inv->writes, 2 * 25) << "seed " << seed;
        // Every writer release switched: the storm really happened.
        EXPECT_EQ(lock->protocol_changes(), 2u * 25u) << "seed " << seed;
    }
}

// A closed-loop read-mostly stream with no think time on three
// processors (the shape of a small shared cache: short lookups, rare
// invalidations, every client always inside or arriving). Writers wait
// behind at most two readers, and the word frees whenever they drain,
// so reader occupancy must not read as contention: every acquisition
// stays in the simple protocol.
TEST(ReactiveRwSelectionTest, ClosedLoopReadMostlyStaysSimple)
{
    using L = ReactiveRwLock<SimPlatform, AlwaysSwitchPolicy>;
    using RM = L::ReleaseMode;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto lock = std::make_shared<L>();
        auto simple = std::make_shared<long>(0);
        auto total = std::make_shared<long>(0);
        sim::Machine m(3, sim::CostModel::alewife(), seed);
        for (std::uint32_t p = 0; p < 3; ++p) {
            m.spawn(p, [=] {
                for (std::uint32_t i = 0; i < 600; ++i) {
                    typename L::Node n;
                    const bool read = sim::random_below(1000) < 950;
                    if (read)
                        lock->lock_read(n);
                    else
                        lock->lock_write(n);
                    *simple += n.rm == RM::kSimple || n.rm == RM::kSimpleToQueue;
                    ++*total;
                    sim::delay(30 + sim::random_below(30));
                    if (read)
                        lock->unlock_read(n);
                    else
                        lock->unlock_write(n);
                }
            });
        }
        m.run();
        EXPECT_EQ(*total, 3 * 600) << "seed " << seed;
        EXPECT_GE(*simple * 100, *total * 98) << "seed " << seed;
        EXPECT_EQ(lock->protocol_changes(), 0u) << "seed " << seed;
    }
}

/// SimPlatform whose atomics count every read-modify-write they issue
/// (exchange, compare&swap, fetch_add/sub/or), for white-box traffic
/// checks.
struct RmwCountingSimPlatform : SimPlatform {
    static inline std::uint64_t rmws = 0;

    template <typename T>
    struct Atomic : sim::Atomic<T> {
        using Base = sim::Atomic<T>;
        using Base::Base;
        T exchange(T v, std::memory_order mo = std::memory_order_seq_cst)
        {
            ++rmws;
            return Base::exchange(v, mo);
        }
        bool compare_exchange_strong(
            T& expected, T desired,
            std::memory_order s = std::memory_order_seq_cst,
            std::memory_order f = std::memory_order_seq_cst)
        {
            ++rmws;
            return Base::compare_exchange_strong(expected, desired, s, f);
        }
        bool compare_exchange_weak(
            T& expected, T desired,
            std::memory_order s = std::memory_order_seq_cst,
            std::memory_order f = std::memory_order_seq_cst)
        {
            ++rmws;
            return Base::compare_exchange_weak(expected, desired, s, f);
        }
        T fetch_add(T v, std::memory_order mo = std::memory_order_seq_cst)
            requires std::is_integral_v<T>
        {
            ++rmws;
            return Base::fetch_add(v, mo);
        }
        T fetch_sub(T v, std::memory_order mo = std::memory_order_seq_cst)
            requires std::is_integral_v<T>
        {
            ++rmws;
            return Base::fetch_sub(v, mo);
        }
        T fetch_or(T v, std::memory_order mo = std::memory_order_seq_cst)
            requires std::is_integral_v<T>
        {
            ++rmws;
            return Base::fetch_or(v, mo);
        }
    };
};
static_assert(Platform<RmwCountingSimPlatform>);

// A writer waiting in simple mode behind a reader read-polls the word:
// between its arrival and the reader's release it issues no RMW at all
// (a compare&swap on a busy word would steal the readers' line only to
// fail). Once the reader leaves, the writer gets in.
TEST(ReactiveRwSelectionTest, WriterPollingAReaderHeldWordIssuesNoRmw)
{
    using P = RmwCountingSimPlatform;
    using L = ReactiveRwLock<P, AlwaysSwitchPolicy>;
    constexpr std::uint64_t kReadHold = 20000;
    auto lock = std::make_shared<L>();
    auto rmws_while_waiting = std::make_shared<std::uint64_t>(~0ull);
    auto writer_in = std::make_shared<bool>(false);
    sim::Machine m(3, sim::CostModel::alewife(), 1);
    m.spawn(0, [=] {
        typename L::Node n;
        lock->lock_read(n);
        sim::delay(kReadHold);
        EXPECT_FALSE(*writer_in);
        lock->unlock_read(n);
    });
    m.spawn(1, [=] {
        sim::delay(500);
        typename L::Node n;
        lock->lock_write(n);
        *writer_in = true;
        lock->unlock_write(n);
    });
    m.spawn(2, [=] {
        // Sample the RMW count over a window in which the writer is
        // already polling and the reader is still inside.
        sim::delay(2000);
        const std::uint64_t before = P::rmws;
        sim::delay(kReadHold - 4000);
        *rmws_while_waiting = P::rmws - before;
    });
    m.run();
    EXPECT_EQ(*rmws_while_waiting, 0u);
    EXPECT_TRUE(*writer_in);
    EXPECT_EQ(lock->mode(), L::Mode::kSimple);
}

}  // namespace
}  // namespace reactive
