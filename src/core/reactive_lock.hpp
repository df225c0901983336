/**
 * @file
 * The reactive spin lock (thesis Sections 3.3.1 and 3.7.3, Figures
 * 3.27-3.29): dynamically selects between the test-and-test-and-set
 * protocol (best at low contention) and an MCS-style queue protocol
 * (best at high contention).
 *
 * Design highlights, all from the thesis:
 *
 *  - **Consensus objects instead of locks.** The TTS lock word is the
 *    TTS protocol's consensus object; the queue tail pointer is the
 *    queue protocol's. The algorithm maintains the invariant that the
 *    two sub-locks are never free at the same time, so possessing a
 *    freshly-free sub-lock *is* possessing the valid protocol. Invalid
 *    protocols are left busy (TTS) or marked with an INVALID tail
 *    sentinel (queue), so a process executing the wrong protocol simply
 *    finds it busy and retries through the dispatcher. No extra
 *    synchronization sits on the common-case critical path.
 *  - **The mode variable is only a hint** (Section 3.3.1): it speeds up
 *    dispatch and is usually read-cached; the race between reading it
 *    and running a protocol is benign by the invariant above.
 *  - **Optimistic test&set fast path** (Section 3.7.3): acquisition
 *    first tries the TTS lock without even reading the mode variable,
 *    optimizing the no-contention latency; if the lock is in queue mode
 *    the attempt fails harmlessly (and pre-fetches the line).
 *  - **Protocol changes are made only by the lock holder** (a process
 *    with the valid consensus object), which serializes changes against
 *    all protocol executions — the C-serializability argument of
 *    Section 3.2.5.
 *  - **Monitoring rides on waiting** (Section 3.2.6): failed test&set
 *    counts and empty-queue observations are collected in code that was
 *    already spinning, and fed to a pluggable switching policy
 *    (Section 3.4) whose state is only touched in-consensus.
 *
 * Policy interface: the holder builds a `ProtocolSignal` (mode index +
 * contention drift) and asks the policy for `next_protocol`
 * (core/policy.hpp); `Mode` values are the protocol indices of the
 * lock's two-slot set. The consensus-point bookkeeping — calibration,
 * the socket bit, tracing, the regret audit and the waiting axis — runs
 * through the shared ConsensusMonitor (core/consensus_monitor.hpp); the
 * lock itself keeps only its protocol words and its consensus points.
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "core/consensus_monitor.hpp"
#include "core/policy.hpp"
#include "core/reactive_queue.hpp"
#include "platform/backoff.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/// Tunables for the reactive lock's contention monitors.
struct ReactiveLockParams {
    /// Failed test&set attempts within one acquisition that mark it
    /// "contended" (the TTS->queue signal).
    std::uint32_t tts_retry_limit = 8;
    /// Backoff while spinning on the TTS protocol.
    BackoffParams backoff = BackoffParams::for_contenders(64);
    /// Optimistic test&set fast path before consulting the mode hint
    /// (Section 3.7.3). Disable only for the ablation benchmark.
    bool optimistic_tts = true;
};

/**
 * Reactive spin lock selecting between TTS and MCS queue protocols.
 *
 * Usage mirrors the thesis code: `acquire` returns a release token that
 * encodes both which protocol the caller holds and whether a protocol
 * change is due on release; the token must be passed to `release`.
 * `ReactiveMutex` wraps this into an RAII interface.
 *
 * @tparam P      Platform model.
 * @tparam Policy selection policy (Section 3.4; core/policy.hpp) for the
 *                two-protocol set {TTS, queue}.
 * @tparam Queue  queue-protocol slot: any type speaking ReactiveQueue's
 *                consensus-object dialect (acquire/Outcome, release,
 *                acquire_invalid, invalidate). The default is the flat
 *                MCS ReactiveQueue; CohortQueue (core/cohort_queue.hpp)
 *                substitutes NUMA cohort handoff, and MessageQueueLock
 *                (msg/message_lock.hpp) the message-passing lock
 *                manager of Section 3.6.
 * @tparam Waiting  waiting-mode axis (waiting/reactive/wait_site.hpp):
 *                SpinWaiting (default) keeps the historical pure-spin
 *                slow paths byte-for-byte (every parking branch is
 *                `if constexpr`-pruned and the site/state members are
 *                empty); ParkWaiting dispatches the slow-path waits
 *                through the holder-published hint (spin / two-phase /
 *                park) over an object-level WaitSite.
 * @tparam WaitPolicy  waiting-mode selection policy (WaitSelectPolicy;
 *                only instantiated under ParkWaiting). The default
 *                calibrates Lpoll = alpha x B from measured wake
 *                latencies; FixedWaitPolicy forces a static mode.
 */
template <Platform P, typename Policy = AlwaysSwitchPolicy,
          typename Queue = ReactiveQueue<P>,
          typename Waiting = SpinWaiting,
          typename WaitPolicy = CalibratedWaitPolicy>
class ReactiveLock {
  public:
    /// The lock's protocol set is fixed: {TTS, MCS queue}.
    static constexpr std::uint32_t kProtocols = 2;

    /// Protocol index currently servicing requests (the hint
    /// variable), under the set's conventional names.
    enum class Mode : std::uint32_t { kTts = 0, kQueue = 1 };

    /// Release token: protocol held plus any pending protocol change.
    enum class ReleaseMode : std::uint32_t {
        kTts,         ///< release the TTS lock
        kQueue,       ///< release the queue lock
        kTtsToQueue,  ///< release and change TTS -> queue
        kQueueToTts,  ///< release and change queue -> TTS
    };

    /// Queue node; must live from acquire() to release().
    using Node = typename Queue::Node;

  private:
    using Monitor = ConsensusMonitor<P, Policy, kProtocols, Waiting,
                                     WaitPolicy, trace::ObjectClass::kLock>;

  public:
    /// Whether slow-path waits may park (ParkWaiting instantiations).
    static constexpr bool kParking = Monitor::kParking;

    ReactiveLock() : ReactiveLock(ReactiveLockParams{}, Policy{}) {}

    explicit ReactiveLock(ReactiveLockParams params, Policy policy = Policy{})
        : queue_(/*initially_valid=*/false),
          params_(params),
          monitor_(std::move(policy))
    {
        init();
    }

    /// Queue-slot configuration pass-through (e.g. CohortQueue::Params).
    template <typename QueueParams>
        requires std::constructible_from<Queue, bool, QueueParams>
    ReactiveLock(ReactiveLockParams params, Policy policy,
                 const QueueParams& queue_params)
        : queue_(/*initially_valid=*/false, queue_params),
          params_(params),
          monitor_(std::move(policy))
    {
        init();
    }

    /// Acquires the lock; returns the token to pass to release().
    ReleaseMode acquire(Node& node)
    {
        // Optimistic test&set (Section 3.7.3): correct regardless of
        // mode because a free TTS lock implies the TTS protocol is the
        // valid one. As in the thesis' Figure 3.27, the fast path
        // performs *no* monitoring (see ConsensusMonitor::fast_acquired).
        if (params_.optimistic_tts &&
            tts_lock_.exchange(kBusy, std::memory_order_acquire) == kFree) {
            monitor_.fast_acquired(kTtsIndex);
            return ReleaseMode::kTts;
        }
        // Dispatch loop: each protocol attempt either succeeds or
        // observes that its protocol was retired and retries with the
        // other one (the protocol-manager loop of Figure 3.6, flattened
        // into the lock per Section 3.2.6).
        Mode m = mode();
        for (;;) {
            if (m == Mode::kTts) {
                if (auto r = try_acquire_tts())
                    return *r;
                m = Mode::kQueue;
            } else {
                if (auto r = try_acquire_queue(node))
                    return *r;
                m = Mode::kTts;
            }
        }
    }

    /**
     * Single non-blocking acquisition attempt: the optimistic test&set,
     * then — if the hint says queue mode — a tail CAS that wins only an
     * empty valid queue. Neither path performs monitoring (a try is the
     * fast path's sibling: its outcome says nothing reliable about
     * contention), so like the optimistic fast path it leaves policy
     * streaks untouched; a fast-path-aware policy gets the same
     * won-here notification. Failure may be spurious, as Lockable
     * permits.
     */
    std::optional<ReleaseMode> try_acquire(Node& node)
    {
        if (tts_lock_.load(std::memory_order_relaxed) == kFree &&
            tts_lock_.exchange(kBusy, std::memory_order_acquire) == kFree) {
            monitor_.fast_acquired(kTtsIndex);
            return ReleaseMode::kTts;
        }
        if (mode() == Mode::kQueue && queue_.try_acquire(node)) {
            monitor_.fast_acquired(kQueueIndex);
            return ReleaseMode::kQueue;
        }
        return std::nullopt;
    }

    /// Releases the lock, performing any pending protocol change.
    void release(Node& node, ReleaseMode mode)
    {
        // Waiting-mode selection happens first, while still in
        // consensus, so the waiters this release is about to signal
        // dispatch under the new hint.
        monitor_.released([&](std::uint32_t hint) {
            if constexpr (requires { queue_.set_wait_hint(hint); })
                queue_.set_wait_hint(hint);
        });
        switch (mode) {
        case ReleaseMode::kTts:
            release_tts();
            break;
        case ReleaseMode::kQueue:
            queue_.release(node);
            break;
        case ReleaseMode::kTtsToQueue:
            release_tts_to_queue(node);
            break;
        case ReleaseMode::kQueueToTts:
            release_queue_to_tts(node);
            break;
        }
        // Parking wake rule: every condition-changing store above (TTS
        // free, queue grant, mode flip, invalidation walk) is followed
        // here, in the same thread, by a site broadcast.
        monitor_.wake();
    }

    /// Current protocol-index hint (tests and monitoring).
    std::uint32_t protocol_index() const
    {
        return mode_.value.load(std::memory_order_relaxed);
    }

    /// protocol_index() under the set's conventional names.
    Mode mode() const { return static_cast<Mode>(protocol_index()); }

    /// Number of completed protocol changes (tests and experiments).
    std::uint64_t protocol_changes() const
    {
        return monitor_.protocol_changes();
    }

    /// Policy state access (in-consensus callers only).
    Policy& policy() { return monitor_.select(); }

    /// Wait-policy state access (in-consensus callers only).
    WaitPolicy& wait_policy()
        requires kParking
    {
        return monitor_.wait_policy();
    }

    /// The packed wait hint currently published to waiters (tests).
    std::uint32_t wait_hint() const { return monitor_.site().hint(); }

    /// Wait-mode transitions published over the lock's lifetime
    /// (tests/benchmarks; 0 for a run the policy never left spin).
    std::uint64_t wait_mode_changes() const
        requires kParking
    {
        return monitor_.wait_mode_changes();
    }

  private:
    static constexpr std::uint32_t kFree = 0;
    static constexpr std::uint32_t kBusy = 1;
    static constexpr std::uint32_t kTtsIndex =
        static_cast<std::uint32_t>(Mode::kTts);
    static constexpr std::uint32_t kQueueIndex =
        static_cast<std::uint32_t>(Mode::kQueue);

    /// Figure 3.28 acquire_tts: spin with backoff, count failed
    /// attempts; returns nullopt if the mode changed (caller retries
    /// with the queue protocol).
    ///
    /// Under ParkWaiting the wait runs through the site instead: the
    /// predicate *acquires* (the same load-then-exchange), counts its
    /// failed attempts for the contention signal, and aborts on a mode
    /// change via a captured flag. The spin build's exponential
    /// backoff is passed through as the site's poll step: spin mode
    /// must reproduce the spin build exactly, and polling the
    /// contended TTS line at pause cadence is an invalidation storm
    /// the spin build does not have. (Two-phase polling is bounded by
    /// Lpoll and park mode does not poll, so the backoff only ever
    /// paces the spin-mode loop.)
    std::optional<ReleaseMode> try_acquire_tts()
    {
        const std::uint64_t start = monitor_.sample_start();
        if constexpr (kParking) {
            ExpBackoff<P> backoff(params_.backoff);
            std::uint32_t retries = 0;
            std::uint32_t polls = 0;
            bool won = false;
            bool aborted = false;
            const AwaitResult wr = monitor_.site().await([&] {
                ++polls;
                if (tts_lock_.load(std::memory_order_relaxed) == kFree) {
                    if (tts_lock_.exchange(kBusy,
                                           std::memory_order_acquire) ==
                        kFree) {
                        won = true;
                        return true;
                    }
                    ++retries;
                }
                if (mode_.value.load(std::memory_order_relaxed) !=
                    static_cast<std::uint32_t>(Mode::kTts)) {
                    aborted = true;
                    return true;
                }
                return false;
            }, [&] { backoff.pause(); });
            if (!won) {
                (void)aborted;
                return std::nullopt;
            }
            monitor_.waited(wr);
            return tts_acquired(retries > params_.tts_retry_limit,
                                /*spun=*/polls > 1, start);
        } else {
            ExpBackoff<P> backoff(params_.backoff);
            std::uint32_t retries = 0;
            bool contended = false;
            bool spun = false;
            for (;;) {
                if (tts_lock_.load(std::memory_order_relaxed) == kFree) {
                    if (tts_lock_.exchange(kBusy,
                                           std::memory_order_acquire) ==
                        kFree)
                        return tts_acquired(contended, spun, start);
                    if (++retries > params_.tts_retry_limit)
                        contended = true;
                }
                spun = true;
                backoff.pause();
                if (mode_.value.load(std::memory_order_relaxed) !=
                    static_cast<std::uint32_t>(Mode::kTts))
                    return std::nullopt;
            }
        }
    }

    /// Bookkeeping common to every successful TTS acquisition (the
    /// caller holds the lock). Only immediate and past-the-retry-limit
    /// wins are clean cost samples.
    ReleaseMode tts_acquired(bool contended, bool spun, std::uint64_t start)
    {
        const std::uint32_t next = monitor_.acquired(
            {kTtsIndex, contended ? +1 : 0}, contended || !spun, start);
        return next != kTtsIndex ? ReleaseMode::kTtsToQueue
                                 : ReleaseMode::kTts;
    }

    /// Queue-side twin of tts_acquired; every queue win is clean.
    ReleaseMode queue_acquired(bool empty, std::uint64_t start)
    {
        const std::uint32_t next =
            monitor_.acquired({kQueueIndex, empty ? -1 : 0}, true, start);
        return next != kQueueIndex ? ReleaseMode::kQueueToTts
                                   : ReleaseMode::kQueue;
    }

    /// Shared tail of both constructors: initial state per Figure
    /// 3.27 — TTS valid and free, queue invalid, mode = TTS.
    void init()
    {
        mode_->store(static_cast<std::uint32_t>(Mode::kTts),
                     std::memory_order_relaxed);
        tts_lock_.store(kFree, std::memory_order_relaxed);
    }

    /// Figure 3.28 acquire_queue; nullopt when the queue protocol was
    /// (or became) invalid — retry with TTS.
    std::optional<ReleaseMode> try_acquire_queue(Node& node)
    {
        const std::uint64_t start = monitor_.sample_start();
        typename Queue::Outcome oc;
        if constexpr (kParking && requires(AwaitResult& wr) {
                          queue_.acquire(node, monitor_.site(), wr);
                      }) {
            AwaitResult wr;
            oc = queue_.acquire(node, monitor_.site(), wr);
            if (oc == Queue::Outcome::kAcquiredWaited)
                monitor_.waited(wr);
            else if (oc == Queue::Outcome::kInvalid)
                // Our enqueue landed on an invalid tail: acquire()
                // dismantled the bogus chain we headed, storing kInvalid
                // into nodes whose owners may be parked on this site.
                monitor_.wake();
        } else if constexpr (kParking && requires(AwaitResult& wr) {
                                 queue_.acquire(node, wr);
                             }) {
            // Queues with their own internal sites (CohortQueue's
            // per-socket parking) run the waits themselves and report
            // the combined cost back.
            AwaitResult wr;
            oc = queue_.acquire(node, wr);
            if (oc == Queue::Outcome::kAcquiredWaited)
                monitor_.waited(wr);
        } else {
            oc = queue_.acquire(node);
        }
        switch (oc) {
        case Queue::Outcome::kAcquiredEmpty:
            // An empty queue signals low contention.
            return queue_acquired(/*empty=*/true, start);
        case Queue::Outcome::kAcquiredWaited:
            return queue_acquired(/*empty=*/false, start);
        case Queue::Outcome::kInvalid:
        default:
            return std::nullopt;
        }
    }

    void release_tts()
    {
        tts_lock_.store(kFree, std::memory_order_release);
    }

    /// Figure 3.29 release_tts_to_queue: the holder validates the queue
    /// protocol, flips the hint, then releases via the queue. The TTS
    /// lock is left busy (= invalid).
    void release_tts_to_queue(Node& node)
    {
        const std::uint64_t start = monitor_.sample_start();
        queue_.acquire_invalid(node);
        mode_.value.store(static_cast<std::uint32_t>(Mode::kQueue),
                          std::memory_order_release);
        monitor_.switched(kTtsIndex, kQueueIndex, +1, start);
        queue_.release(node);
    }

    /// Figure 3.29 release_queue_to_tts: flip the hint, dismantle the
    /// queue (waking waiters with INVALID so they retry via TTS), then
    /// free the TTS lock. The queue is left invalid. Still in consensus
    /// until the TTS word is freed; the measured span covers the queue
    /// dismantling (the expensive half of this direction's change).
    void release_queue_to_tts(Node& node)
    {
        const std::uint64_t start = monitor_.sample_start();
        mode_.value.store(static_cast<std::uint32_t>(Mode::kTts),
                          std::memory_order_release);
        monitor_.switched(kQueueIndex, kTtsIndex, -1, start,
                          [&] { queue_.invalidate(&node); });
        release_tts();
    }

    // The mode hint lives on its own (mostly-read) cache line, separate
    // from the frequently written lock words (Section 3.2.6).
    CacheAligned<typename P::template Atomic<std::uint32_t>> mode_;
    alignas(kCacheLineSize) typename P::template Atomic<std::uint32_t>
        tts_lock_{kFree};
    Queue queue_;

    ReactiveLockParams params_;
    // Policy, socket tracker, wait site and trace identity: touched
    // in-consensus only (the site also by waiters).
    Monitor monitor_;
};

}  // namespace reactive
