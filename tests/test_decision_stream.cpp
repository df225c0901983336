// Pinned decision streams: the exact sequence of calls each reactive
// primitive makes into its selection policy at its consensus points.
//
// A recording policy implements every select-side refinement
// (calibrating, socket-aware, fast-path-aware, wait-aware) and decides
// deterministically (every k-th observation moves to the next rung), so
// the whole call sequence — which method, the signal, the cycle sample,
// the socket-crossing bit, the wait signal — is a function of the
// simulated schedule alone. Each kernel pins a hash of that sequence,
// the call count, protocol_changes() and the machine's elapsed cycles.
// Any change to where a primitive consults its policy, what it passes,
// or which simulated code runs when shows up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "barrier/central_barrier.hpp"
#include "barrier/combining_tree_barrier.hpp"
#include "barrier/dissemination_barrier.hpp"
#include "barrier/reactive_barrier.hpp"
#include "core/cohort_queue.hpp"
#include "core/protocol_set.hpp"
#include "core/reactive_lock.hpp"
#include "core/reactive_queue.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {
namespace {

using sim::SimPlatform;

/// Records every policy call into an FNV-1a hash and moves to the next
/// rung on every k-th observation.
class RecordingPolicy {
  public:
    RecordingPolicy() = default;
    explicit RecordingPolicy(std::uint32_t k) : k_(k) {}

    std::uint32_t next_protocol(ProtocolSignal s)
    {
        record(1, s, 0, false);
        return decide(s);
    }

    std::uint32_t next_protocol(ProtocolSignal s, std::uint64_t cycles)
    {
        record(2, s, cycles, false);
        return decide(s);
    }

    std::uint32_t next_protocol(ProtocolSignal s, std::uint64_t cycles,
                                bool cross)
    {
        record(3, s, cycles, cross);
        crosses_ += cross ? 1 : 0;
        return decide(s);
    }

    void on_switch() { mix(4); }

    void on_switch_cycles(std::uint64_t cycles)
    {
        mix(5);
        mix(cycles);
    }

    void on_tts_fast_acquire() { mix(6); }

    void on_wait_signal(const WaitSignal& w)
    {
        mix(7);
        mix(w.hold_cycles);
        mix(w.queue_depth);
        mix(w.now_cycles);
    }

    /// Sized by the reactive barrier to its protocol count.
    void resize_protocols(std::uint32_t n) { n_ = n; }

    std::uint64_t hash() const { return h_; }
    std::uint64_t calls() const { return calls_; }
    std::uint64_t crosses() const { return crosses_; }

  private:
    void record(std::uint64_t method, ProtocolSignal s, std::uint64_t cycles,
                bool cross)
    {
        mix(method);
        mix(s.protocol);
        mix(static_cast<std::uint64_t>(s.drift + 1));
        mix(cycles);
        mix(cross ? 1 : 0);
    }

    void mix(std::uint64_t v)
    {
        ++calls_;
        h_ ^= v;
        h_ *= 1099511628211ull;
    }

    std::uint32_t decide(ProtocolSignal s)
    {
        if (++observations_ % k_ != 0)
            return s.protocol;
        return (s.protocol + 1) % n_;
    }

    std::uint32_t k_ = 5;
    std::uint32_t n_ = 2;
    std::uint64_t observations_ = 0;
    std::uint64_t calls_ = 0;
    std::uint64_t crosses_ = 0;
    std::uint64_t h_ = 14695981039346656037ull;
};

static_assert(SelectPolicy<RecordingPolicy>);
static_assert(CalibratingSelectPolicy<RecordingPolicy>);
static_assert(SocketAwareSelect<RecordingPolicy>);
static_assert(FastPathAwareSelect<RecordingPolicy>);
static_assert(WaitAwareSelect<RecordingPolicy>);

/// {policy hash, policy calls, protocol_changes(), elapsed()}.
using Stream = std::vector<std::uint64_t>;

template <typename Primitive>
Stream stream_of(Primitive& p, const sim::Machine& m)
{
    return {p.policy().hash(), p.policy().calls(), p.protocol_changes(),
            m.elapsed()};
}

/// procs processors each run iters critical sections of 10-40 cycles
/// with think times below `think`.
template <typename Lock>
void lock_kernel(sim::Machine& m, std::shared_ptr<Lock> lock,
                 std::uint32_t procs, std::uint32_t threads, int iters,
                 std::uint32_t think)
{
    for (std::uint32_t t = 0; t < threads; ++t) {
        m.spawn(t % procs, [=] {
            for (int i = 0; i < iters; ++i) {
                typename Lock::Node node;
                const auto rm = lock->acquire(node);
                sim::delay(10 + sim::random_below(30));
                lock->release(node, rm);
                sim::delay(sim::random_below(think));
            }
        });
    }
}

TEST(PinnedDecisionStreamTest, FlatLock)
{
    using Lock = ReactiveLock<SimPlatform, RecordingPolicy>;
    sim::Machine m(8, sim::CostModel::alewife(), 21);
    auto lock = std::make_shared<Lock>(ReactiveLockParams{},
                                       RecordingPolicy(5));
    lock_kernel(m, lock, 8, 8, 40, 400);
    m.run();
    EXPECT_EQ(stream_of(*lock, m), (Stream{14263568215178716565ull, 1252, 40, 111003}));
}

TEST(PinnedDecisionStreamTest, CohortLockTwoSockets)
{
    using Lock =
        ReactiveLock<SimPlatform, RecordingPolicy, CohortQueue<SimPlatform>>;
    sim::Machine m(8, sim::Topology{2, 4}, sim::CostModel::alewife(), 22);
    CohortQueue<SimPlatform>::Params cp;
    cp.sockets = 2;
    auto lock = std::make_shared<Lock>(ReactiveLockParams{},
                                       RecordingPolicy(4), cp);
    lock_kernel(m, lock, 8, 8, 40, 200);
    m.run();
    EXPECT_GT(lock->policy().crosses(), 0u);
    EXPECT_EQ(stream_of(*lock, m), (Stream{262133241088605685ull, 1308, 52, 178347}));
}

TEST(PinnedDecisionStreamTest, RwLock)
{
    using Rw = ReactiveRwLock<SimPlatform, RecordingPolicy>;
    sim::Machine m(8, sim::CostModel::alewife(), 23);
    auto rw = std::make_shared<Rw>(ReactiveRwLockParams{},
                                   RecordingPolicy(3));
    for (std::uint32_t p = 0; p < 8; ++p) {
        m.spawn(p, [=] {
            for (int i = 0; i < 40; ++i) {
                typename Rw::Node n;
                if ((i + p) % 3 == 0) {
                    rw->lock_write(n);
                    sim::delay(20 + sim::random_below(20));
                    rw->unlock_write(n);
                } else {
                    rw->lock_read(n);
                    sim::delay(10 + sim::random_below(40));
                    rw->unlock_read(n);
                }
                sim::delay(sim::random_below(300));
            }
        });
    }
    m.run();
    EXPECT_EQ(stream_of(*rw, m), (Stream{8266875635172437164ull, 557, 30, 141768}));
}

template <typename Bar>
void barrier_kernel(sim::Machine& m, std::shared_ptr<Bar> bar,
                    std::uint32_t procs, int episodes)
{
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            typename Bar::Node n;
            for (int e = 0; e < episodes; ++e) {
                // Bunched phases alternate with a straggler on proc 0.
                const bool straggle = (e / 8) % 2 == 1 && p == 0;
                sim::delay(straggle ? 3000 : sim::random_below(60));
                bar->arrive(n);
            }
        });
    }
}

TEST(PinnedDecisionStreamTest, TwoProtocolBarrier)
{
    using Bar = ReactiveBarrier<SimPlatform, RecordingPolicy>;
    sim::Machine m(8, sim::CostModel::alewife(), 24);
    auto bar = std::make_shared<Bar>(8, ReactiveBarrierParams{},
                                     RecordingPolicy(3));
    barrier_kernel(m, bar, 8, 48);
    m.run();
    EXPECT_EQ(stream_of(*bar, m), (Stream{7419310607780176582ull, 288, 16, 94581}));
}

TEST(PinnedDecisionStreamTest, ThreeProtocolBarrier)
{
    using Set = ProtocolSet<CentralBarrier<SimPlatform>,
                            CombiningTreeBarrier<SimPlatform>,
                            DisseminationBarrier<SimPlatform>>;
    using Bar = ReactiveBarrier<SimPlatform, RecordingPolicy, Set>;
    sim::Machine m(8, sim::CostModel::alewife(), 25);
    auto bar = std::make_shared<Bar>(8, ReactiveBarrierParams{},
                                     RecordingPolicy(4));
    barrier_kernel(m, bar, 8, 48);
    m.run();
    EXPECT_EQ(stream_of(*bar, m), (Stream{543930751593813055ull, 276, 12, 95776}));
}

TEST(PinnedDecisionStreamTest, ParkingLockUnderPreemption)
{
    using Lock = ReactiveLock<SimPlatform, RecordingPolicy,
                              ReactiveQueue<SimPlatform>, ParkWaiting>;
    sim::CostModel c = sim::CostModel::alewife();
    c.preempt_quantum = 2000;
    sim::Machine m(2, c, 26);
    auto lock = std::make_shared<Lock>(ReactiveLockParams{},
                                       RecordingPolicy(6));
    lock_kernel(m, lock, 2, 8, 30, 3000);
    m.run();
    EXPECT_GT(m.stats().blocks, 0u);
    EXPECT_EQ(stream_of(*lock, m), (Stream{16373090441065429106ull, 1482, 10, 239487}));
}

}  // namespace
}  // namespace reactive
