/**
 * @file
 * Native-hardware microbenchmarks (google-benchmark): uncontended
 * latencies of every lock and fetch-and-op implementation on real
 * std::atomic hardware — the native analogue of the P=1 column of the
 * baseline figures, and the numbers a downstream adopter of the library
 * cares about first. The `sim/step` rows price the simulator itself:
 * host time per simulated memory op when every op is a scheduling
 * step.
 */
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.hpp"
#include "core/reactive_fetch_op.hpp"
#include "core/reactive_lock.hpp"
#include "core/reactive_mutex.hpp"
#include "fetchop/combining_tree.hpp"
#include "fetchop/locked_fetch_op.hpp"
#include "locks/anderson_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/tas_lock.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/tts_lock.hpp"
#include "barrier/central_barrier.hpp"
#include "barrier/combining_tree_barrier.hpp"
#include "barrier/reactive_barrier.hpp"
#include "platform/native_platform.hpp"
#include "rw/queue_rw_lock.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "rw/simple_rw_lock.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "waiting/sync/barrier.hpp"
#include "waiting/sync/future.hpp"
#include "waiting/sync/waiting_mutex.hpp"

namespace {

using reactive::NativePlatform;

template <typename L>
void BM_LockUncontended(benchmark::State& state)
{
    L lock;
    for (auto _ : state) {
        typename L::Node node;
        lock.lock(node);
        benchmark::DoNotOptimize(&lock);
        lock.unlock(node);
    }
}

template <>
void BM_LockUncontended<reactive::AndersonLock<NativePlatform>>(
    benchmark::State& state)
{
    reactive::AndersonLock<NativePlatform> lock(8);
    for (auto _ : state) {
        typename reactive::AndersonLock<NativePlatform>::Node node;
        lock.lock(node);
        benchmark::DoNotOptimize(&lock);
        lock.unlock(node);
    }
}

BENCHMARK(BM_LockUncontended<reactive::TasLock<NativePlatform>>)
    ->Name("lock/tas");
BENCHMARK(BM_LockUncontended<reactive::TtsLock<NativePlatform>>)
    ->Name("lock/tts");
BENCHMARK(BM_LockUncontended<
              reactive::McsLock<NativePlatform, reactive::McsVariant::kFetchStore>>)
    ->Name("lock/mcs_fetchstore");
BENCHMARK(BM_LockUncontended<
              reactive::McsLock<NativePlatform, reactive::McsVariant::kCompareSwap>>)
    ->Name("lock/mcs_cas");
BENCHMARK(BM_LockUncontended<reactive::TicketLock<NativePlatform>>)
    ->Name("lock/ticket");
BENCHMARK(BM_LockUncontended<reactive::AndersonLock<NativePlatform>>)
    ->Name("lock/anderson");
BENCHMARK(BM_LockUncontended<reactive::ReactiveNodeLock<NativePlatform>>)
    ->Name("lock/reactive");

void BM_ReactiveMutexGuard(benchmark::State& state)
{
    reactive::ReactiveMutex<NativePlatform> mu;
    for (auto _ : state) {
        reactive::ReactiveMutex<NativePlatform>::Guard g(mu);
        benchmark::DoNotOptimize(&mu);
    }
}
BENCHMARK(BM_ReactiveMutexGuard)->Name("lock/reactive_mutex_guard");

template <typename F>
void BM_FetchOp(benchmark::State& state)
{
    F f;
    typename F::Node node;
    for (auto _ : state)
        benchmark::DoNotOptimize(f.fetch_add(node, 1));
}

template <>
void BM_FetchOp<reactive::CombiningFetchOp<NativePlatform>>(
    benchmark::State& state)
{
    reactive::CombiningFetchOp<NativePlatform> f(8);
    typename reactive::CombiningFetchOp<NativePlatform>::Node node;
    for (auto _ : state)
        benchmark::DoNotOptimize(f.fetch_add(node, 1));
}

template <>
void BM_FetchOp<reactive::ReactiveFetchOp<NativePlatform>>(
    benchmark::State& state)
{
    reactive::ReactiveFetchOp<NativePlatform> f(8);
    typename reactive::ReactiveFetchOp<NativePlatform>::Node node;
    for (auto _ : state)
        benchmark::DoNotOptimize(f.fetch_add(node, 1));
}

BENCHMARK(
    BM_FetchOp<reactive::LockedFetchOp<NativePlatform,
                                       reactive::TtsLock<NativePlatform>>>)
    ->Name("fetchop/tts_lock");
BENCHMARK(BM_FetchOp<reactive::LockedFetchOp<
              NativePlatform,
              reactive::McsLock<NativePlatform,
                                reactive::McsVariant::kFetchStore>>>)
    ->Name("fetchop/mcs_lock");
BENCHMARK(BM_FetchOp<reactive::CombiningFetchOp<NativePlatform>>)
    ->Name("fetchop/combining_tree");
BENCHMARK(BM_FetchOp<reactive::ReactiveFetchOp<NativePlatform>>)
    ->Name("fetchop/reactive");

// ---- reader-writer locks ----------------------------------------------
//
// The rwlock analogue of the sim's reader-fraction sweep (fig_rwlock),
// on real std::atomic hardware: uncontended acquisition latencies for
// both sides, plus a threaded mixed workload at a read-mostly and a
// write-heavy fraction. The sim predicts the centralized protocol wins
// read-mostly traffic and the queue protocol wins write-heavy traffic
// at higher thread counts; these benchmarks are the hardware check of
// that crossover (run with --benchmark_filter=rw/).

template <typename RW>
void BM_RwReadUncontended(benchmark::State& state)
{
    RW lock;
    for (auto _ : state) {
        typename RW::Node node;
        lock.lock_read(node);
        benchmark::DoNotOptimize(&lock);
        lock.unlock_read(node);
    }
}

template <typename RW>
void BM_RwWriteUncontended(benchmark::State& state)
{
    RW lock;
    for (auto _ : state) {
        typename RW::Node node;
        lock.lock_write(node);
        benchmark::DoNotOptimize(&lock);
        lock.unlock_write(node);
    }
}

/**
 * Threaded mixed workload: each benchmark thread performs lookups
 * (shared acquisition) with probability range(0)/1000, updates
 * (exclusive acquisition) otherwise, on one shared lock. The lock is a
 * function-local static so all benchmark threads (and repetitions)
 * share it; the reactive variant re-converges at each fraction, which
 * is exactly the behaviour under test.
 */
template <typename RW>
void BM_RwMixed(benchmark::State& state)
{
    static RW lock;
    // Pin each benchmark thread so the contended numbers measure the
    // protocols, not the scheduler's migrations (no-op where the
    // platform has no affinity API). Scoped: thread 0 is the borrowed
    // process main thread and must get its mask back, or every later
    // benchmark in this binary would run confined to CPU 0. The
    // fixed-pool contended tables live in fig_calibration --native.
    reactive::bench::ScopedPin pin(
        static_cast<std::uint32_t>(state.thread_index()));
    const std::uint64_t read_permille =
        static_cast<std::uint64_t>(state.range(0));
    // Per-thread deterministic LCG: threads must not share PRNG state
    // (that would serialize the very paths under test).
    std::uint64_t x =
        0x9e3779b97f4a7c15ull * (state.thread_index() + 1) + 1;
    for (auto _ : state) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        typename RW::Node node;
        if ((x >> 33) % 1000 < read_permille) {
            lock.lock_read(node);
            benchmark::DoNotOptimize(&lock);
            lock.unlock_read(node);
        } else {
            lock.lock_write(node);
            benchmark::DoNotOptimize(&lock);
            lock.unlock_write(node);
        }
    }
}

/// SimpleRwLock built with the reactive lock's simple-slot backoff, so
/// the static rows are tuned like the reactive one (QueueRwLock has no
/// backoff to tune).
struct SimpleRwNative : reactive::SimpleRwLock<NativePlatform> {
    SimpleRwNative()
        : SimpleRwLock(reactive::ReactiveRwLockParams{}.backoff)
    {
    }
};
using QueueRwNative = reactive::QueueRwLock<NativePlatform>;
using ReactiveRwNative = reactive::ReactiveRwLock<NativePlatform>;

BENCHMARK(BM_RwReadUncontended<SimpleRwNative>)->Name("rw/simple_read");
BENCHMARK(BM_RwReadUncontended<QueueRwNative>)->Name("rw/queue_read");
BENCHMARK(BM_RwReadUncontended<ReactiveRwNative>)->Name("rw/reactive_read");
BENCHMARK(BM_RwWriteUncontended<SimpleRwNative>)->Name("rw/simple_write");
BENCHMARK(BM_RwWriteUncontended<QueueRwNative>)->Name("rw/queue_write");
BENCHMARK(BM_RwWriteUncontended<ReactiveRwNative>)->Name("rw/reactive_write");

BENCHMARK(BM_RwMixed<SimpleRwNative>)
    ->Name("rw/simple_mixed")
    ->ArgName("read_permille")
    ->Arg(950)
    ->Arg(250)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();
BENCHMARK(BM_RwMixed<QueueRwNative>)
    ->Name("rw/queue_mixed")
    ->ArgName("read_permille")
    ->Arg(950)
    ->Arg(250)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();
BENCHMARK(BM_RwMixed<ReactiveRwNative>)
    ->Name("rw/reactive_mixed")
    ->ArgName("read_permille")
    ->Arg(950)
    ->Arg(250)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

// ---- barriers ---------------------------------------------------------

template <typename B>
void BM_BarrierSoloEpisode(benchmark::State& state)
{
    B bar(1);
    typename B::Node node;
    for (auto _ : state)
        bar.arrive(node);
}
BENCHMARK(BM_BarrierSoloEpisode<reactive::CentralBarrier<NativePlatform>>)
    ->Name("barrier/central_single_participant");
BENCHMARK(
    BM_BarrierSoloEpisode<reactive::CombiningTreeBarrier<NativePlatform>>)
    ->Name("barrier/tree_single_participant");
BENCHMARK(BM_BarrierSoloEpisode<reactive::ReactiveBarrier<NativePlatform>>)
    ->Name("barrier/reactive_single_participant");

void BM_FutureResolvedGet(benchmark::State& state)
{
    reactive::FutureValue<int, NativePlatform> f;
    f.set_value(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.get());
}
BENCHMARK(BM_FutureResolvedGet)->Name("waiting/future_resolved_get");

void BM_WaitingMutexUncontended(benchmark::State& state)
{
    reactive::WaitingMutex<NativePlatform> mu(
        reactive::WaitingAlgorithm::two_phase(2000));
    for (auto _ : state) {
        mu.lock();
        benchmark::DoNotOptimize(&mu);
        mu.unlock();
    }
}
BENCHMARK(BM_WaitingMutexUncontended)->Name("waiting/mutex_uncontended");

void BM_BarrierSolo(benchmark::State& state)
{
    reactive::WaitingBarrier<NativePlatform> bar(1);
    reactive::WaitingBarrier<NativePlatform>::Node node;
    for (auto _ : state)
        bar.arrive(node);
}
BENCHMARK(BM_BarrierSolo)->Name("waiting/barrier_single_participant");

// ---- simulator ----------------------------------------------------------

/// Host cost of one simulated scheduling step: P processors each spin
/// load() + pause() on one shared line, so nearly every charge crosses
/// the next processor's clock and reschedules. Timed over Machine::run()
/// only (construction and spawn are set-up); `ns_per_memop` is the
/// layer's number.
void BM_SimStep(benchmark::State& state)
{
    namespace sim = reactive::sim;
    const auto procs = static_cast<std::uint32_t>(state.range(0));
    constexpr int kSpins = 2000;
    std::uint64_t memops = 0;
    double run_s = 0;
    for (auto _ : state) {
        sim::Machine m(procs);
        sim::Atomic<std::uint32_t> word(0);
        for (std::uint32_t p = 0; p < procs; ++p) {
            m.spawn(p, [&word] {
                for (int i = 0; i < kSpins; ++i) {
                    benchmark::DoNotOptimize(word.load());
                    sim::pause();
                }
            });
        }
        const auto t0 = std::chrono::steady_clock::now();
        m.run();
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        state.SetIterationTime(dt.count());
        run_s += dt.count();
        memops += m.stats().mem_ops;
    }
    state.counters["ns_per_memop"] =
        memops != 0 ? run_s * 1e9 / static_cast<double>(memops) : 0.0;
}
BENCHMARK(BM_SimStep)
    ->Name("sim/step")
    ->ArgName("P")
    ->Arg(2)
    ->Arg(16)
    ->Arg(64)
    ->UseManualTime();

}  // namespace

BENCHMARK_MAIN();
