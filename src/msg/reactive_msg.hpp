/**
 * @file
 * Reactive algorithms that select between shared-memory and
 * message-passing protocols (thesis Section 3.6).
 *
 * `ReactiveMessageLock` chooses between the shared-memory
 * test-and-test-and-set protocol and the message-passing queue lock. It
 * is not a class of its own: MessageQueueLock speaks the reactive
 * lock's queue-slot dialect, so the lock is `ReactiveLock` with the
 * message lock as its slot, deciding through the same ConsensusMonitor
 * and AlwaysSwitchPolicy as the shared-memory reactive lock.
 * `ReactiveMessageFetchOp` chooses among the shared-memory TTS-lock
 * counter, the centralized message-passing fetch-and-op, and the
 * message-passing combining tree. For the message protocols the
 * in-consensus point is the manager/server/root *handler* — "a process
 * reaches in-consensus when executing inside an atomic message handler,
 * and requires no locking". The fetch-and-op's server and tree streaks
 * are kept by the requesters after the reply, outside consensus, so
 * they stay hand-written heuristics rather than policy input.
 *
 * The same invariants as the shared-memory reactive algorithms hold:
 * at most one protocol valid at a time; mode variables are hints;
 * wrong-protocol executions bounce off busy/invalid consensus objects
 * and re-dispatch.
 */
#pragma once

#include <cstdint>
#include <optional>

#include "core/policy.hpp"
#include "core/reactive_lock.hpp"
#include "core/reactive_mutex.hpp"
#include "fetchop/fetchop_concepts.hpp"
#include "msg/message_fetch_op.hpp"
#include "msg/message_lock.hpp"
#include "platform/backoff.hpp"
#include "platform/cache_line.hpp"
#include "sim/memory.hpp"
#include "sim/sim_platform.hpp"

namespace reactive::msg {

/// Reactive lock over {shared-memory TTS, message-passing queue lock};
/// construct as `ReactiveMessageLock lock({}, {}, manager)`.
using ReactiveMessageLock =
    ReactiveLock<sim::SimPlatform, AlwaysSwitchPolicy, MessageQueueLock>;

/// NodeLock-style form of ReactiveMessageLock for generic harnesses.
using ReactiveMessageNodeLock =
    ReactiveNodeLock<sim::SimPlatform, AlwaysSwitchPolicy, MessageQueueLock>;

/// Tunables for the reactive message-passing fetch-and-op.
struct ReactiveMsgFetchOpParams {
    /// Failed test&set attempts that mark a TTS acquisition contended.
    std::uint32_t tts_retry_limit = 8;
    BackoffParams backoff = BackoffParams::for_contenders(64);
    /// Consecutive "hot" server observations before moving to the tree.
    std::uint32_t hot_limit = 4;
    /// Root batches below this size count as low combining.
    std::uint32_t combine_min_batch = 2;
    std::uint32_t combine_low_limit = 4;
};

/**
 * Reactive fetch-and-op over {shared-memory TTS-lock counter,
 * message-passing centralized server, message-passing combining tree}.
 */
class ReactiveMessageFetchOp {
  public:
    enum class Mode : std::uint32_t { kTtsLock = 0, kServer = 1, kCombine = 2 };

    struct Node {
        MessageFetchOp::Node server_node;
        MessageCombiningTree::Node tree_node;
    };

    ReactiveMessageFetchOp(std::uint32_t nprocs, std::uint32_t server_proc,
                           FetchOpValue initial = 0,
                           ReactiveMsgFetchOpParams params = {})
        : server_(server_proc, 0, /*initially_valid=*/false),
          tree_(nprocs, 0, /*initially_valid=*/false), params_(params)
    {
        mode_->store(static_cast<std::uint32_t>(Mode::kTtsLock));
        tts_lock_.store(kFree);
        value_.store(initial);
    }

    FetchOpValue fetch_add(Node& node, FetchOpValue delta)
    {
        for (;;) {
            switch (mode()) {
            case Mode::kTtsLock:
                if (auto r = run_tts(delta))
                    return *r;
                break;
            case Mode::kServer:
                if (auto r = run_server(node, delta))
                    return *r;
                break;
            case Mode::kCombine:
                if (auto r = run_combine(node, delta))
                    return *r;
                break;
            }
            sim::pause();
        }
    }

    Mode mode() const
    {
        return static_cast<Mode>(mode_.value.load(std::memory_order_relaxed));
    }

    std::uint64_t protocol_changes() const { return protocol_changes_; }

    /// Quiescent read (call after Machine::run()).
    FetchOpValue read_quiescent() const
    {
        switch (mode()) {
        case Mode::kServer:
            return server_.read_quiescent();
        case Mode::kCombine:
            return tree_.read_quiescent();
        case Mode::kTtsLock:
        default:
            return value_.load(std::memory_order_relaxed);
        }
    }

  private:
    static constexpr std::uint32_t kFree = 0;
    static constexpr std::uint32_t kBusy = 1;

    std::optional<FetchOpValue> run_tts(FetchOpValue delta)
    {
        ExpBackoff<sim::SimPlatform> backoff(params_.backoff);
        std::uint32_t retries = 0;
        bool contended = false;
        for (;;) {
            if (tts_lock_.load(std::memory_order_relaxed) == kFree) {
                if (tts_lock_.exchange(kBusy, std::memory_order_acquire) ==
                    kFree) {
                    const FetchOpValue prior =
                        value_.load(std::memory_order_relaxed);
                    value_.store(prior + delta, std::memory_order_relaxed);
                    if (contended) {
                        // Switch to the message server; TTS stays busy.
                        server_.validate(prior + delta);
                        mode_.value.store(
                            static_cast<std::uint32_t>(Mode::kServer),
                            std::memory_order_release);
                        ++protocol_changes_;
                    } else {
                        tts_lock_.store(kFree, std::memory_order_release);
                    }
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

    std::optional<FetchOpValue> run_server(Node& node, FetchOpValue delta)
    {
        if (!server_.fetch_add(node.server_node, delta))
            return std::nullopt;
        const FetchOpValue prior = node.server_node.prior;
        if (node.server_node.hot) {
            if (++hot_streak_ >= params_.hot_limit) {
                // Escalate to the combining tree. We are *not*
                // in-consensus here, so the change is arbitrated at the
                // server handler: invalidate() returns true only to the
                // single caller that retired the valid protocol.
                if (mode() == Mode::kServer && server_.invalidate()) {
                    tree_.validate(server_.read_quiescent());
                    mode_.value.store(
                        static_cast<std::uint32_t>(Mode::kCombine),
                        std::memory_order_release);
                    ++protocol_changes_;
                }
                hot_streak_ = 0;
            }
        } else {
            hot_streak_ = 0;
        }
        return prior;
    }

    std::optional<FetchOpValue> run_combine(Node& node, FetchOpValue delta)
    {
        if (!tree_.fetch_add(node.tree_node, delta))
            return std::nullopt;
        const FetchOpValue prior = node.tree_node.prior;
        if (node.tree_node.batch < params_.combine_min_batch) {
            if (++low_combine_streak_ >= params_.combine_low_limit) {
                if (mode() == Mode::kCombine && tree_.invalidate()) {
                    server_.validate(tree_.read_quiescent());
                    mode_.value.store(
                        static_cast<std::uint32_t>(Mode::kServer),
                        std::memory_order_release);
                    ++protocol_changes_;
                }
                low_combine_streak_ = 0;
            }
        } else {
            low_combine_streak_ = 0;
        }
        return prior;
    }

    CacheAligned<sim::Atomic<std::uint32_t>> mode_;
    alignas(kCacheLineSize) sim::Atomic<std::uint32_t> tts_lock_{kFree};
    sim::Atomic<FetchOpValue> value_{0};
    MessageFetchOp server_;
    MessageCombiningTree tree_;
    ReactiveMsgFetchOpParams params_;
    std::uint32_t hot_streak_ = 0;          // requester-local heuristic
    std::uint32_t low_combine_streak_ = 0;  // requester-local heuristic
    std::uint64_t protocol_changes_ = 0;
};

}  // namespace reactive::msg
