/**
 * @file
 * The reactive fetch-and-op algorithm (thesis Section 3.3.2 and
 * Appendix C): dynamically selects among three protocols —
 *
 *   1. a centralized variable protected by a test-and-test-and-set lock
 *      (lowest latency at no/low contention),
 *   2. a centralized variable protected by an MCS-style queue lock
 *      (graceful at moderate contention),
 *   3. Goodman et al.'s software combining tree (parallel throughput at
 *      high contention).
 *
 * Consensus objects: the TTS lock word, the queue tail pointer, and the
 * combining tree's root. At most one is valid at a time; a process that
 * runs the wrong protocol finds its consensus object busy/INVALID and
 * retries through the dispatch loop. Unlike the reactive lock there is
 * *no* optimistic TTS fast path: optimistically grabbing the central
 * lock would serialize accesses in combining mode and destroy the
 * tree's parallelism (Section 3.3.2 calls this out explicitly).
 *
 * Run-time monitoring (Section 3.3.2): each consensus holder reports a
 * drift to the shared ConsensusMonitor (core/consensus_monitor.hpp),
 * whose AlwaysSwitchPolicy climbs a rung on +1 and descends one after
 * `low_streak_limit` consecutive -1s; the monitor also counts and
 * traces (class `fetchop`) every decision and switch.
 *   - TTS holder: +1 when failed test&set attempts exceed a limit;
 *   - queue holder: -1 when the queue was empty, +1 when the FIFO wait
 *     exceeds a limit (a faithful contention estimate: FIFO order);
 *   - tree root hook: -1 when the combining rate at the root (the batch
 *     size, piggybacked up the tree) is low — "a fetch-and-increment
 *     along with the fetch-and-op" seeing "how large of an increment
 *     reaches the root".
 *
 * State transfer: protocols 1 and 2 share the fetch-and-op variable in
 * a common location (the optimization noted in Section 3.3.2, "keeps
 * this variable in a common location so updates are not necessary");
 * only tree transitions copy the value, done by the process holding the
 * valid consensus object.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/consensus_monitor.hpp"
#include "core/policy.hpp"
#include "core/reactive_queue.hpp"
#include "fetchop/combining_tree.hpp"
#include "fetchop/fetchop_concepts.hpp"
#include "platform/backoff.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"

namespace reactive {

/// Tunables for the reactive fetch-and-op monitors.
struct ReactiveFetchOpParams {
    /// Failed test&set attempts that mark an acquisition contended.
    std::uint32_t tts_retry_limit = 8;
    /// Consecutive over-provisioned observations (empty-queue
    /// acquisitions, low-combining root batches) before moving down a
    /// rung.
    std::uint32_t low_streak_limit = 4;
    /// Queue waiting time (cycles) beyond which the tree is preferred.
    /// Default calibrated to the measured queue-vs-tree crossover on the
    /// simulated Alewife (~32 contenders; see fig_baseline_fetchop).
    std::uint64_t queue_wait_limit = 5000;
    /// Root batches below this size count as "low combining".
    std::uint32_t combine_min_batch = 3;
    /// Backoff while spinning on the TTS lock protocol.
    BackoffParams backoff = BackoffParams::for_contenders(64);
};

/**
 * Reactive fetch-and-add over three protocols. Satisfies the FetchOp
 * concept; `Node` carries the queue node and combining-tree leaf and
 * may be stack-allocated per call or reused.
 */
template <Platform P>
class ReactiveFetchOp {
  public:
    enum class Mode : std::uint32_t { kTtsLock = 0, kQueueLock = 1, kCombine = 2 };

    struct Node {
        typename ReactiveQueue<P>::Node queue_node;
        typename CombiningTree<P>::Node tree_node;
        bool leaf_assigned = false;
    };

    explicit ReactiveFetchOp(std::uint32_t width = 64, FetchOpValue initial = 0,
                             ReactiveFetchOpParams params = {})
        : tree_(width, 0),
          params_(params),
          monitor_(AlwaysSwitchPolicy(params.low_streak_limit))
    {
        mode_->store(kTts, std::memory_order_relaxed);
        tts_lock_.store(kFree, std::memory_order_relaxed);
        value_.store(initial, std::memory_order_relaxed);
        tree_.invalidate();  // TTS protocol is the initially valid one
    }

    /// Linearizable fetch-and-add; returns the value before @p delta.
    FetchOpValue fetch_add(Node& node, FetchOpValue delta)
    {
        if (!node.leaf_assigned) {
            node.tree_node.leaf =
                next_leaf_.fetch_add(1, std::memory_order_relaxed);
            node.leaf_assigned = true;
        }
        for (;;) {
            switch (mode()) {
            case Mode::kTtsLock:
                if (auto r = run_tts(delta))
                    return *r;
                break;
            case Mode::kQueueLock:
                if (auto r = run_queue(node, delta))
                    return *r;
                break;
            case Mode::kCombine:
                if (auto r = run_combine(node, delta))
                    return *r;
                break;
            }
            P::pause();  // protocol retired under us; re-dispatch
        }
    }

    /// Quiescent read of the current value.
    FetchOpValue read()
    {
        if (mode() == Mode::kCombine)
            return tree_.read();
        return value_.load(std::memory_order_acquire);
    }

    /// Current protocol hint (tests and experiments).
    Mode mode() const
    {
        return static_cast<Mode>(mode_.value.load(std::memory_order_relaxed));
    }

    /// Completed protocol changes (tests and experiments).
    std::uint64_t protocol_changes() const
    {
        return monitor_.protocol_changes();
    }

    CombiningTree<P>& tree() { return tree_; }

  private:
    static constexpr std::uint32_t kFree = 0;
    static constexpr std::uint32_t kBusy = 1;
    // The Mode values as protocol indices of the three-rung set.
    static constexpr std::uint32_t kTts = 0, kQueue = 1, kTree = 2;

    using Monitor =
        ConsensusMonitor<P, AlwaysSwitchPolicy, 3, SpinWaiting,
                         CalibratedWaitPolicy, trace::ObjectClass::kFetchOp>;

    /// The holder's decision (the plain policy takes no cost sample).
    std::uint32_t decide(std::uint32_t protocol, int drift)
    {
        return monitor_.acquired({protocol, drift}, /*clean=*/true,
                                 /*start=*/0);
    }

    /// Protocol 1: centralized variable under the TTS lock. Returns
    /// nullopt when the protocol is retired (mode moved on).
    std::optional<FetchOpValue> run_tts(FetchOpValue delta)
    {
        ExpBackoff<P> backoff(params_.backoff);
        std::uint32_t retries = 0;
        bool contended = false;
        for (;;) {
            if (tts_lock_.load(std::memory_order_relaxed) == kFree) {
                if (tts_lock_.exchange(kBusy, std::memory_order_acquire) ==
                    kFree) {
                    // In-consensus: apply the operation.
                    const FetchOpValue prior =
                        value_.load(std::memory_order_relaxed);
                    value_.store(prior + delta, std::memory_order_relaxed);
                    if (decide(kTts, contended ? +1 : 0) != kTts)
                        switch_tts_to_queue();
                    else
                        tts_lock_.store(kFree, std::memory_order_release);
                    return prior;
                }
                if (++retries > params_.tts_retry_limit)
                    contended = true;
            }
            backoff.pause();
            if (mode() != Mode::kTtsLock)
                return std::nullopt;
        }
    }

    /// Protocol 2: centralized variable under the invalidatable queue.
    std::optional<FetchOpValue> run_queue(Node& node, FetchOpValue delta)
    {
        const std::uint64_t t0 = P::now();
        const auto outcome = queue_.acquire(node.queue_node);
        if (outcome == ReactiveQueue<P>::Outcome::kInvalid)
            return std::nullopt;
        // In-consensus: apply the operation, then decide.
        const FetchOpValue prior = value_.load(std::memory_order_relaxed);
        value_.store(prior + delta, std::memory_order_relaxed);
        // An empty queue is over-provisioned; otherwise the FIFO wait
        // estimates contention directly.
        int drift = -1;
        if (outcome == ReactiveQueue<P>::Outcome::kAcquiredWaited)
            drift = P::now() - t0 > params_.queue_wait_limit ? +1 : 0;
        switch (decide(kQueue, drift)) {
        case kTts:
            switch_queue_to_tts(node);
            break;
        case kTree:
            switch_queue_to_combine(node, prior + delta);
            break;
        default:
            queue_.release(node.queue_node);
            break;
        }
        return prior;
    }

    /// Protocol 3: the combining tree, with the combining-rate monitor
    /// installed as the root hook.
    std::optional<FetchOpValue> run_combine(Node& node, FetchOpValue delta)
    {
        TreeResult r = tree_.apply(
            node.tree_node, delta, [this](std::uint32_t batch) {
                // In-consensus at the root: the batch that reached it is
                // the combining rate.
                return decide(kTree,
                              batch < params_.combine_min_batch ? -1 : 0) !=
                       kTree;
            });
        if (!r.ok)
            return std::nullopt;
        if (r.root_retired) {
            // The hook retired the root under us: we carry the state to
            // the queue protocol. (Our own batch completed normally.)
            switch_combine_to_queue(node, r.value_after);
        }
        return r.prior;
    }

    // ---- protocol changes (performed in-consensus only) --------------

    void switch_tts_to_queue()
    {
        // We hold the TTS lock and leave it busy (= invalid). A private
        // node is enough: release() hands the queue over or empties it.
        typename ReactiveQueue<P>::Node helper;
        queue_.acquire_invalid(helper);
        mode_.value.store(kQueue, std::memory_order_release);
        monitor_.switched(kTts, kQueue, +1, /*start=*/0);
        queue_.release(helper);
    }

    void switch_queue_to_tts(Node& node)
    {
        mode_.value.store(kTts, std::memory_order_release);
        monitor_.switched(kQueue, kTts, -1, /*start=*/0);
        queue_.invalidate(&node.queue_node);
        tts_lock_.store(kFree, std::memory_order_release);
    }

    void switch_queue_to_combine(Node& node, FetchOpValue current)
    {
        // Bookkeeping first: a valid root's hook decides through the
        // same monitor. Then transfer state into the tree and validate
        // its root before announcing the mode, so early arrivals find a
        // valid root.
        monitor_.switched(kQueue, kTree, +1, /*start=*/0);
        tree_.validate(current);
        mode_.value.store(kTree, std::memory_order_release);
        queue_.invalidate(&node.queue_node);
    }

    void switch_combine_to_queue(Node& node, FetchOpValue current)
    {
        // The root is already invalid (hook). Become the queue's holder,
        // transfer the value, announce, release.
        queue_.acquire_invalid(node.queue_node);
        value_.store(current, std::memory_order_relaxed);
        mode_.value.store(kQueue, std::memory_order_release);
        monitor_.switched(kTree, kQueue, -1, /*start=*/0);
        queue_.release(node.queue_node);
    }

    // Mode hint on its own mostly-read cache line (Section 3.2.6).
    CacheAligned<typename P::template Atomic<std::uint32_t>> mode_;
    alignas(kCacheLineSize) typename P::template Atomic<std::uint32_t>
        tts_lock_{kFree};
    ReactiveQueue<P> queue_{/*initially_valid=*/false};
    alignas(kCacheLineSize) typename P::template Atomic<FetchOpValue> value_{0};
    CombiningTree<P> tree_;
    typename P::template Atomic<std::uint32_t> next_leaf_{0};

    ReactiveFetchOpParams params_;
    // Policy, change count and trace identity: in-consensus only.
    Monitor monitor_;
};

}  // namespace reactive
