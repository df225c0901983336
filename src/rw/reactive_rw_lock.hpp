/**
 * @file
 * The reactive reader-writer lock: dynamically selects between the
 * centralized counter protocol (simple_rw_lock.hpp, best at low
 * contention — one fetch&add per read acquisition) and the fair queue
 * protocol (queue_rw_lock.hpp, best at high contention — local spinning
 * and O(1) remote references per acquisition).
 *
 * This is the consensus-object construction of the reactive spin lock
 * (core/reactive_lock.hpp, thesis Sections 3.2.5-3.3.1) applied to a
 * primitive with *two* contention axes — reader parallelism and writer
 * exclusivity:
 *
 *  - **Consensus objects.** The simple protocol's word is its consensus
 *    object (a reserved INVALID bit marks it retired); the queue
 *    protocol's tail is its own (an INVALID sentinel, exactly as in the
 *    reactive mutex). The two are never simultaneously free-and-valid,
 *    so possessing a freshly-acquired valid protocol *is* possessing
 *    the lock; a process executing a retired protocol observes INVALID
 *    and retries through the dispatcher.
 *  - **Protocol changes are made only by a lock-holding writer.** A
 *    writer excludes readers and writers of both protocols, so it holds
 *    the full consensus — the rwlock analogue of "changes are made only
 *    by the lock holder". Readers never switch and never touch policy
 *    state; their acquisitions are pure protocol executions. This keeps
 *    the C-serializability argument of Section 3.2.5 intact even though
 *    read acquisitions overlap.
 *  - **The mode variable is only a hint**: it routes the dispatcher and
 *    is usually read-cached; racing it is benign by the invariant above.
 *  - **Monitoring rides on waiting** (Section 3.2.6), writer side
 *    only. In simple mode a writer waits as a test-and-test&set: it
 *    read-polls the word and issues its compare&swap only when the
 *    word reads free, so it never RMWs a line readers hold. Each busy
 *    poll falls in one of three classes: a *lost race* (read free, but
 *    another writer's compare&swap got in first), a round behind a
 *    *reader crowd* (at least `kReaderCrowd` = 2 readers, whose overlap
 *    can hold the word indefinitely), and a plain *drain wait* (behind
 *    a writer or a single reader, which frees the word on leaving; a
 *    race lost to a reader is reader traffic of the same kind). More
 *    than `write_retry_limit` lost races and crowd rounds in one
 *    acquisition mark it contended (drift +1 on protocol 0, the TTS
 *    role); drain waits are not counted, because reader occupancy
 *    alone is not contention. In queue mode the signal is the mutex's:
 *    empty-queue acquisitions (drift -1 on protocol 1). So all three
 *    switching policies of core/policy.hpp apply unchanged.
 *
 * The release token rides inside the Node, so ReactiveRwLock satisfies
 * the plain RwLock concept and is a drop-in replacement for either
 * static protocol ("the interface to the application program remains
 * constant", Section 1.1).
 *
 * Calibrating-policy caveat: only writers feed the policy, so a
 * re-probe (cost_model.hpp) that switches into the dormant protocol
 * ends only after `probe_len` further *write* acquisitions. Reads that
 * arrive meanwhile execute the probed protocol — correct, and within a
 * constant factor of the home protocol's read cost (both serve reads
 * in O(1) remote references) — but a workload that goes read-only
 * right after a probe keeps that constant overhead until the next
 * write. Read-mostly workloads that want zero probe exposure can set
 * probe_period = 0 (estimates then refresh only when the protocols
 * genuinely alternate).
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "core/consensus_monitor.hpp"
#include "core/policy.hpp"
#include "platform/backoff.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "rw/queue_rw_lock.hpp"
#include "rw/rw_concepts.hpp"
#include "rw/simple_rw_lock.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/// Tunables for the reactive rwlock's contention monitors.
struct ReactiveRwLockParams {
    /// Contended polls (races lost to another writer, rounds behind a
    /// reader crowd) within one simple-mode write acquisition that
    /// mark it "contended" (the simple->queue signal).
    std::uint32_t write_retry_limit = 8;
    /// Backoff while spinning on the simple protocol.
    BackoffParams backoff = BackoffParams::for_contenders(64);
    /// Optimistic simple-protocol fast path before consulting the mode
    /// hint (the rwlock analogue of Section 3.7.3's optimistic
    /// test&set). Disable only for ablation experiments.
    bool optimistic_simple = true;
};

/**
 * Reactive reader-writer lock selecting between the centralized and
 * queue protocols.
 *
 * Policy decisions (core/policy.hpp) see the writer-side signals on the
 * two-slot set {simple, queue}, and Mode values are the protocol
 * indices. The writer's consensus-point bookkeeping runs through the
 * shared ConsensusMonitor (core/consensus_monitor.hpp), the same
 * pipeline as the reactive mutex's.
 *
 * The second, orthogonal selection axis is *how to wait*
 * (waiting/reactive/): with Waiting = ParkWaiting the slow paths of
 * both protocols dispatch through one lock-level WaitSite on the
 * writer-published wait hint (spin / two-phase / park). The same
 * consensus discipline governs it — only the departing *writer* (full
 * exclusivity) feeds the WaitSelectPolicy and republishes the hint;
 * readers merely obey it. Every operation that stores a grant or
 * invalid bit, or frees the simple word, broadcasts on the site
 * afterwards (end_read's writer handoff, end_write's succession,
 * propagate_reader_grant via start_read, invalidation walks, simple
 * releases), so a parked waiter is always re-checked awake.
 *
 * @tparam P          Platform model.
 * @tparam Policy     selection policy (Section 3.4; core/policy.hpp)
 *                    for the two-protocol set; shared with the
 *                    reactive mutex.
 * @tparam Waiting    SpinWaiting (default; byte-identical to the
 *                    pre-subsystem lock) or ParkWaiting.
 * @tparam WaitPolicy WaitSelectPolicy choosing the waiting mode
 *                    (ParkWaiting instantiations only).
 */
template <Platform P, typename Policy = AlwaysSwitchPolicy,
          typename Waiting = SpinWaiting,
          typename WaitPolicy = CalibratedWaitPolicy>
class ReactiveRwLock {
  public:
    /// The rwlock's protocol set is fixed: {simple, MCS-style queue}.
    static constexpr std::uint32_t kProtocols = 2;

    /// Protocol index currently servicing requests (the hint
    /// variable), under the set's conventional names.
    enum class Mode : std::uint32_t { kSimple = 0, kQueue = 1 };

    /// Release token: protocol held plus any pending protocol change.
    /// Only writers carry the switch variants.
    enum class ReleaseMode : std::uint32_t {
        kSimple,          ///< release the simple protocol
        kQueue,           ///< release the queue protocol
        kSimpleToQueue,   ///< writer release + change simple -> queue
        kQueueToSimple,   ///< writer release + change queue -> simple
    };

    /// Per-acquisition context; the queue node and the release token.
    struct Node {
        typename QueueRwLock<P>::Node qnode;
        ReleaseMode rm{ReleaseMode::kSimple};
    };

  private:
    using Monitor = ConsensusMonitor<P, Policy, kProtocols, Waiting,
                                     WaitPolicy, trace::ObjectClass::kRwLock>;

  public:
    /// Whether slow-path waits may park (ParkWaiting instantiations).
    static constexpr bool kParking = Monitor::kParking;

    ReactiveRwLock() : ReactiveRwLock(ReactiveRwLockParams{}, Policy{}) {}

    explicit ReactiveRwLock(ReactiveRwLockParams params,
                            Policy policy = Policy{})
        : queue_(/*initially_valid=*/false),
          params_(params),
          monitor_(std::move(policy))
    {
        // Initial state: simple valid and free, queue invalid,
        // mode = simple (the low-contention protocol, as in Figure 3.27).
        mode_->store(static_cast<std::uint32_t>(Mode::kSimple),
                     std::memory_order_relaxed);
    }

    // ---- RwLock interface --------------------------------------------

    void lock_read(Node& n)
    {
        using Attempt = typename SimpleRwLock<P>::Attempt;
        // Optimistic fast path: a valid-and-writer-free simple word
        // admits the reader regardless of the (possibly stale) hint.
        // No monitoring: readers never feed the policy.
        if (params_.optimistic_simple &&
            simple_.try_lock_read() == Attempt::kAcquired) {
            n.rm = ReleaseMode::kSimple;
            return;
        }
        Mode m = mode();
        for (;;) {
            if (m == Mode::kSimple) {
                if (try_read_simple()) {
                    n.rm = ReleaseMode::kSimple;
                    return;
                }
                m = Mode::kQueue;
            } else {
                if (start_read_queue(n) !=
                    QueueRwLock<P>::Outcome::kInvalid) {
                    n.rm = ReleaseMode::kQueue;
                    return;
                }
                m = Mode::kSimple;
            }
        }
    }

    void unlock_read(Node& n)
    {
        if (n.rm == ReleaseMode::kSimple)
            simple_.unlock_read();
        else
            queue_.end_read(n.qnode);
        // A leaving reader may free the simple word for a parked
        // writer, or (last of its group) grant the queue's next writer.
        monitor_.wake();
    }

    void lock_write(Node& n)
    {
        using Attempt = typename SimpleRwLock<P>::Attempt;
        // Optimistic write attempt on the simple word (Section 3.7.3),
        // read-polled first: a rwlock word is often held by readers,
        // and a blind compare&swap would steal their line only to
        // fail. As in the reactive mutex, the fast path performs no
        // monitoring (ConsensusMonitor::fast_acquired); the writer holds
        // full exclusivity, so its bookkeeping is in-consensus. Reader
        // fast paths never touch policy state — readers hold no
        // exclusivity.
        if (params_.optimistic_simple &&
            simple_.poll_write().attempt == Attempt::kAcquired) {
            monitor_.fast_acquired(kSimpleIndex);
            n.rm = ReleaseMode::kSimple;
            return;
        }
        Mode m = mode();
        for (;;) {
            if (m == Mode::kSimple) {
                if (auto r = try_write_simple()) {
                    n.rm = *r;
                    return;
                }
                m = Mode::kQueue;
            } else {
                if (auto r = try_write_queue(n)) {
                    n.rm = *r;
                    return;
                }
                m = Mode::kSimple;
            }
        }
    }

    void unlock_write(Node& n)
    {
        // Waiting-mode selection happens first, while still holding
        // full exclusivity, so the waiters this release signals
        // dispatch under the new hint.
        monitor_.released();
        switch (n.rm) {
        case ReleaseMode::kSimple:
            simple_.unlock_write();
            break;
        case ReleaseMode::kQueue:
            queue_.end_write(n.qnode);
            break;
        case ReleaseMode::kSimpleToQueue:
            release_simple_to_queue(n);
            break;
        case ReleaseMode::kQueueToSimple:
            release_queue_to_simple(n);
            break;
        }
        // Parking wake rule: every condition-changing store above
        // (simple word free, queue grant, mode flip, invalidation walk)
        // is followed here, in the same thread, by a site broadcast.
        monitor_.wake();
    }

    // ---- std-facade hooks (one-shot tries; see reactive_shared_mutex)

    /// Single non-blocking write attempt: the optimistic simple-word
    /// CAS, then — if the hint says queue mode — a tail CAS that wins
    /// only an empty valid queue (so try_lock keeps making progress
    /// while the lock lives in the queue protocol; std::lock over
    /// several reactive locks depends on that). Neither path performs
    /// monitoring, as for the optimistic fast path. Failure may be
    /// spurious.
    bool try_lock_write(Node& n)
    {
        if (simple_.try_lock_write() ==
            SimpleRwLock<P>::Attempt::kAcquired) {
            monitor_.fast_acquired(kSimpleIndex);
            n.rm = ReleaseMode::kSimple;
            return true;
        }
        if (mode() == Mode::kQueue &&
            queue_.try_start_write(n.qnode) != QueueRwLock<P>::Outcome::kInvalid) {
            monitor_.fast_acquired(kQueueIndex);
            n.rm = ReleaseMode::kQueue;
            return true;
        }
        return false;
    }

    /// Single non-blocking read attempt (simple word, then the queue's
    /// empty-tail path in queue mode; readers never monitor). Failure
    /// may be spurious.
    bool try_lock_read(Node& n)
    {
        if (simple_.try_lock_read() == SimpleRwLock<P>::Attempt::kAcquired) {
            n.rm = ReleaseMode::kSimple;
            return true;
        }
        if (mode() == Mode::kQueue &&
            queue_.try_start_read(n.qnode) != QueueRwLock<P>::Outcome::kInvalid) {
            // The empty-tail win may have propagated a grant to a
            // parked successor reader.
            monitor_.wake();
            n.rm = ReleaseMode::kQueue;
            return true;
        }
        return false;
    }

    // ---- monitoring (tests, experiments) -----------------------------

    /// Current protocol-index hint.
    std::uint32_t protocol_index() const
    {
        return mode_.value.load(std::memory_order_relaxed);
    }

    /// protocol_index() under the set's conventional names.
    Mode mode() const { return static_cast<Mode>(protocol_index()); }

    /// Number of completed protocol changes.
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

  private:
    using Attempt = typename SimpleRwLock<P>::Attempt;
    using QOutcome = typename QueueRwLock<P>::Outcome;
    static constexpr std::uint32_t kSimpleIndex =
        static_cast<std::uint32_t>(Mode::kSimple);
    static constexpr std::uint32_t kQueueIndex =
        static_cast<std::uint32_t>(Mode::kQueue);

    /// Readers in the polled word that make a waiting writer's poll
    /// count as contended (a reader crowd). Writer starvation on the
    /// centralized word needs overlapping readers — behind a single
    /// reader the word frees when it leaves — so polls behind fewer
    /// readers are plain drain waits and are not counted.
    static constexpr std::uint32_t kReaderCrowd = 2;

    /// Simple-protocol read acquisition: spin with backoff while a
    /// writer is inside; false if the protocol was retired or the hint
    /// moved on (caller retries with the queue protocol). Parking
    /// instantiations dispatch through the site instead: the predicate
    /// *is* the acquisition attempt, aborting on retirement or a mode
    /// change, and the freeing writer's release broadcast re-checks us.
    /// Readers never feed the wait policy (no consensus), so the wait
    /// cost is traced but not folded into the estimators.
    bool try_read_simple()
    {
        if constexpr (kParking) {
            // The spin build's backoff paces spin-mode polling: the
            // predicate hits the contended reader count (see
            // try_acquire_tts in reactive_lock.hpp).
            ExpBackoff<P> backoff(params_.backoff);
            bool acquired = false;
            const AwaitResult wr = monitor_.site().await([&] {
                switch (simple_.try_lock_read()) {
                case Attempt::kAcquired:
                    acquired = true;
                    return true;
                case Attempt::kInvalid:
                    return true;
                case Attempt::kBusy:
                    break;
                }
                return mode_.value.load(std::memory_order_relaxed) !=
                       static_cast<std::uint32_t>(Mode::kSimple);
            }, [&] { backoff.pause(); });
            (void)monitor_.parked(wr);
            return acquired;
        } else {
            ExpBackoff<P> backoff(params_.backoff);
            for (;;) {
                switch (simple_.try_lock_read()) {
                case Attempt::kAcquired:
                    return true;
                case Attempt::kInvalid:
                    return false;
                case Attempt::kBusy:
                    break;
                }
                backoff.pause();
                if (mode_.value.load(std::memory_order_relaxed) !=
                    static_cast<std::uint32_t>(Mode::kSimple))
                    return false;
            }
        }
    }

    /// Queue-protocol read acquisition: plain in spin builds; in
    /// parking builds the blocked branch dispatches through the site
    /// (pure predicate — the grant is pushed into the node), and a
    /// success broadcasts because propagate_reader_grant may have
    /// granted a parked successor reader.
    QOutcome start_read_queue(Node& n)
    {
        if constexpr (kParking) {
            AwaitResult wr{};
            const QOutcome out =
                queue_.start_read(n.qnode, monitor_.site(), wr);
            // Success may have propagated a grant; failure dismantled a
            // bogus chain, storing INVALID into parked waiters.
            monitor_.wake();
            (void)monitor_.parked(wr);
            return out;
        } else {
            return queue_.start_read(n.qnode);
        }
    }

    /// Simple-protocol write acquisition: a test-and-test&set
    /// (SimpleRwLock::poll_write, which never RMWs a busy word). Each
    /// busy poll is classified. A race lost to another writer and a
    /// round behind a reader crowd (kReaderCrowd readers) are
    /// write contention: they count toward the contended verdict.
    /// Anything else is a plain drain wait and is not counted: behind
    /// a single reader, about to leave, the writer re-polls its cached
    /// copy at once and takes the word the moment it frees; behind a
    /// writer, after a race lost to a reader, and behind a crowd it
    /// backs off exponentially. The policy is fed on success (the
    /// caller then holds full exclusivity, so policy state is safe to
    /// touch). Parking instantiations run the attempt loop as the site
    /// predicate (abortable acquiring predicate, as in the reactive
    /// mutex's TTS slow path); the winner then reports how it waited —
    /// it holds full exclusivity, so the single-writer wait policy is
    /// safe to feed.
    std::optional<ReleaseMode> try_write_simple()
    {
        const std::uint64_t start = monitor_.sample_start();
        std::uint32_t retries = 0;
        bool acquired = false;
        bool draining = false;  // the last poll saw one reader inside
        // One poll; true once it resolves (acquired or retired).
        const auto poll = [&] {
            const auto p = simple_.poll_write();
            if (p.attempt != Attempt::kBusy) {
                acquired = p.attempt == Attempt::kAcquired;
                return true;
            }
            const bool crowd = p.readers >= kReaderCrowd;
            if ((p.lost_race && p.writer) || crowd)
                ++retries;
            draining = !p.writer && !p.lost_race && !crowd;
            return false;
        };
        ExpBackoff<P> backoff(params_.backoff);
        const auto pace = [&] {
            if (draining)
                P::pause();
            else
                backoff.pause();
        };
        if constexpr (kParking) {
            const AwaitResult wr = monitor_.site().await([&] {
                return poll() ||
                       mode_.value.load(std::memory_order_relaxed) !=
                           static_cast<std::uint32_t>(Mode::kSimple);
            }, pace);
            if (!acquired)
                return std::nullopt;
            monitor_.waited(wr);
        } else {
            while (!poll()) {
                pace();
                if (mode_.value.load(std::memory_order_relaxed) !=
                    static_cast<std::uint32_t>(Mode::kSimple))
                    return std::nullopt;
            }
            if (!acquired)
                return std::nullopt;
        }
        return write_simple_acquired(retries, start);
    }

    /// Bookkeeping common to every successful simple-protocol write
    /// acquisition (the caller holds full exclusivity). Only immediate
    /// and past-the-retry-limit wins are clean cost samples; mid-spin
    /// wins measure waiting, not protocol cost (see cost_model.hpp).
    ReleaseMode write_simple_acquired(std::uint32_t retries,
                                      std::uint64_t start)
    {
        const bool contended = retries > params_.write_retry_limit;
        const std::uint32_t next = monitor_.acquired(
            {kSimpleIndex, contended ? +1 : 0}, contended || retries == 0,
            start);
        return next != kSimpleIndex ? ReleaseMode::kSimpleToQueue
                                    : ReleaseMode::kSimple;
    }

    /// Queue-protocol write acquisition; an empty queue signals low
    /// contention. nullopt when the protocol was retired.
    std::optional<ReleaseMode> try_write_queue(Node& n)
    {
        const std::uint64_t start = monitor_.sample_start();
        QOutcome outcome;
        if constexpr (kParking) {
            AwaitResult wr{};
            outcome = queue_.start_write(n.qnode, monitor_.site(), wr);
            if (outcome == QOutcome::kInvalid) {
                // Enqueuing onto a retired tail dismantles the bogus
                // chain we headed, storing INVALID into parked waiters.
                monitor_.wake();
                return std::nullopt;
            }
            monitor_.waited(wr);
        } else {
            outcome = queue_.start_write(n.qnode);
            if (outcome == QOutcome::kInvalid)
                return std::nullopt;
        }
        const bool empty = outcome == QOutcome::kAcquiredEmpty;
        const std::uint32_t next =
            monitor_.acquired({kQueueIndex, empty ? -1 : 0}, true, start);
        return next != kQueueIndex ? ReleaseMode::kQueueToSimple
                                   : ReleaseMode::kQueue;
    }

    /// The holding writer validates the queue (capturing its INVALID
    /// tail), retires the simple word, flips the hint, and releases via
    /// the queue. Mirrors release_tts_to_queue (Figure 3.29).
    void release_simple_to_queue(Node& n)
    {
        const std::uint64_t start = monitor_.sample_start();
        queue_.acquire_invalid_write(n.qnode);
        simple_.invalidate_from_writer();
        mode_.value.store(static_cast<std::uint32_t>(Mode::kQueue),
                          std::memory_order_release);
        monitor_.switched(kSimpleIndex, kQueueIndex, +1, start);
        queue_.end_write(n.qnode);
    }

    /// The holding writer flips the hint, dismantles the queue (waking
    /// waiters with INVALID so they retry via the simple protocol), and
    /// validates + frees the simple word. Mirrors release_queue_to_tts;
    /// still in consensus until validate_free() publishes the word.
    void release_queue_to_simple(Node& n)
    {
        const std::uint64_t start = monitor_.sample_start();
        mode_.value.store(static_cast<std::uint32_t>(Mode::kSimple),
                          std::memory_order_release);
        monitor_.switched(kQueueIndex, kSimpleIndex, -1, start,
                          [&] { queue_.invalidate(&n.qnode); });
        simple_.validate_free();
    }

    // The mode hint lives on its own (mostly-read) cache line, separate
    // from the frequently written protocol words (Section 3.2.6).
    CacheAligned<typename P::template Atomic<std::uint32_t>> mode_;
    SimpleRwLock<P> simple_;
    QueueRwLock<P> queue_;

    ReactiveRwLockParams params_;
    // Policy, socket tracker (of the previous *writer*: readers neither
    // feed the policy nor hand off the write-side lines), wait site and
    // trace identity: touched only by writers under full exclusivity
    // (the site also by waiters).
    Monitor monitor_;
};

}  // namespace reactive
