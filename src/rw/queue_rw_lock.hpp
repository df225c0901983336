/**
 * @file
 * Fair, locally-spinning queue-based reader-writer lock (Mellor-Crummey
 * & Scott, PPoPP '91), extended with the consensus-object machinery of
 * core/reactive_queue.hpp so it can serve as the high-contention
 * protocol of the reactive rwlock.
 *
 * Readers and writers join a single FIFO queue with fetch&store on the
 * tail and spin on a flag in their *own* queue node, so every waiter
 * polls a distinct cache line. Consecutive readers overlap: a reader
 * that reaches the front propagates the grant to an immediately
 * following reader, and a reader arriving behind an *active* reader
 * joins it without queuing a full wait. Writers are granted alone, in
 * arrival order; readers that arrive after a waiting writer queue
 * behind it (no starvation in either direction).
 *
 * Auxiliary centralized state (`reader_count`, `next_writer`) is
 * touched O(1) times per acquisition — it hands the lock from the last
 * leaving reader to the next writer — so the protocol keeps the queue
 * lock's O(1)-remote-references property that makes it win at high
 * contention. The reader count and a writer-waiting flag share one
 * word, so the decrement that empties the reader group and the claim
 * of the writer waiting behind it are one atomic step: a late reader
 * of an older group can never grant a writer queued behind a newer
 * group that is still reading, and no claim compares node addresses,
 * so a reused writer node cannot be claimed twice.
 *
 * Reactive extensions (unused in standalone operation):
 *  - the tail doubles as the protocol's consensus object, with a
 *    distinguished INVALID sentinel marking the protocol retired;
 *  - waiters can be signalled INVALID instead of GO, aborting to the
 *    dispatcher to retry with the valid protocol;
 *  - a process holding the other protocol's valid consensus object can
 *    capture an INVALID tail (`acquire_invalid_write`), becoming the
 *    queue's writer while validating it, and a holding writer can
 *    retire the queue (`invalidate`), waking every waiter with INVALID.
 *
 * Per-node wait/successor state is packed into one atomic word: the
 * GO / INVALID signal bits and the successor-class bits must be read
 * and written together (a reader registering behind a waiting reader
 * must atomically verify the predecessor is still waiting), which the
 * original expresses as a CAS on a two-field record.
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "rw/rw_concepts.hpp"

namespace reactive {

/**
 * MCS-style fair queue rwlock with local spinning.
 *
 * @tparam P Platform model.
 */
template <Platform P>
class QueueRwLock {
  public:
    // Node state word: signal bits (set by the granting predecessor or
    // the invalidator) plus successor-class bits (set by the successor).
    static constexpr std::uint32_t kGoBit = 1u;
    static constexpr std::uint32_t kInvalidBit = 2u;
    static constexpr std::uint32_t kSuccReaderBit = 4u;
    static constexpr std::uint32_t kSuccWriterBit = 8u;

    enum class Kind : std::uint32_t { kReader = 0, kWriter = 1 };

    /// Per-acquisition queue node; must live from start to end.
    struct Node {
        typename P::template Atomic<Node*> next{nullptr};
        typename P::template Atomic<std::uint32_t> state{0};
        Kind kind = Kind::kReader;  // written by owner before enqueue
    };

    /// How an acquisition attempt concluded.
    enum class Outcome {
        kAcquiredEmpty,   ///< got the lock, queue was empty (low contention)
        kAcquiredWaited,  ///< got the lock after queuing
        kInvalid,         ///< protocol retired; retry with the other one
    };

    /// @param initially_valid false leaves the tail INVALID (the state a
    ///        reactive algorithm starts its non-designated protocols in).
    explicit QueueRwLock(bool initially_valid = true)
    {
        tail_.store(initially_valid ? nullptr : invalid_tail(),
                    std::memory_order_relaxed);
    }

    // ---- plain blocking interface (RwLock concept) -------------------

    void lock_read(Node& node)
    {
        const Outcome o = start_read(node);
        assert(o != Outcome::kInvalid &&
               "invalidated lock used through the plain interface");
        (void)o;
    }

    void unlock_read(Node& node) { end_read(node); }

    void lock_write(Node& node)
    {
        const Outcome o = start_write(node);
        assert(o != Outcome::kInvalid &&
               "invalidated lock used through the plain interface");
        (void)o;
    }

    void unlock_write(Node& node) { end_write(node); }

    // ---- queue protocol proper ---------------------------------------

    /// Attempts a shared acquisition with @p node.
    Outcome start_read(Node& node)
    {
        return start_read_with(node,
                               [this](Node& n) { return wait_for_signal(n); });
    }

    /// Shared acquisition whose blocking wait runs through @p site's
    /// hint-dispatched await (waiting/reactive/wait_site.hpp); @p wr
    /// receives the wait cost when the wait actually ran. The grant is
    /// pushed into the node by the predecessor, so the predicate is
    /// pure — no acquiring action. Wakes are the composing lock's
    /// obligation (ReactiveRwLock broadcasts after every queue op).
    template <typename Site, typename Result>
    Outcome start_read(Node& node, Site& site, Result& wr)
    {
        return start_read_with(node, [&](Node& n) {
            return wait_for_signal(n, site, wr);
        });
    }

    /**
     * Non-blocking shared attempt: wins only an *empty* valid queue
     * (tail == nullptr); a busy or retired queue fails immediately as
     * kInvalid. Backs the std try_lock_shared facade — spurious
     * failure under contention is permitted there.
     */
    Outcome try_start_read(Node& node)
    {
        node.kind = Kind::kReader;
        node.next.store(nullptr, std::memory_order_relaxed);
        node.state.store(0, std::memory_order_relaxed);
        Node* expected = nullptr;
        if (!tail_.compare_exchange_strong(expected, &node,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
            return Outcome::kInvalid;
        reader_count_.fetch_add(1, std::memory_order_seq_cst);
        node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
        propagate_reader_grant(node);
        return Outcome::kAcquiredEmpty;
    }

    /// Releases a shared acquisition.
    void end_read(Node& node)
    {
        Node* succ = node.next.load(std::memory_order_acquire);
        Node* expected = &node;
        if (succ != nullptr ||
            !tail_.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
            while ((succ = node.next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            // A waiting writer behind us becomes the reader group's
            // designated heir: publish it, then mark it waiting in the
            // same step that drops our own reader unit.
            if (node.state.load(std::memory_order_acquire) & kSuccWriterBit) {
                next_writer_.store(succ, std::memory_order_seq_cst);
                leave_group(/*hand_off=*/true);
                return;
            }
        }
        leave_group(/*hand_off=*/false);
    }

    /// Attempts an exclusive acquisition with @p node.
    Outcome start_write(Node& node)
    {
        return start_write_with(
            node, [this](Node& n) { return wait_for_signal(n); });
    }

    /// Exclusive acquisition with a site-dispatched wait; see the
    /// start_read overload.
    template <typename Site, typename Result>
    Outcome start_write(Node& node, Site& site, Result& wr)
    {
        return start_write_with(node, [&](Node& n) {
            return wait_for_signal(n, site, wr);
        });
    }

    /**
     * Non-blocking exclusive attempt: fails immediately (kInvalid)
     * unless the queue's tail is empty, the lock is valid, and no
     * reader group is inside. The reader pre-check fails the common
     * contended case without dirtying the tail line, but it is not
     * airtight: between it and the tail CAS a reader can win the
     * empty tail, a second reader can join it, and the joiner — now
     * the tail — can leave, clearing the tail while the first reader
     * is still inside. The empty-tail handshake (claim_empty) detects
     * that residue, and the attempt then
     * *retracts* the node (retract_or_commit_write) instead of
     * waiting out an application-controlled read-side critical
     * section, so the try blocks only in the narrow case where
     * another thread has already enqueued a blocking acquisition
     * behind it. Backs the std try_lock facade; failure may be
     * spurious.
     */
    Outcome try_start_write(Node& node)
    {
        if (reader_count_.load(std::memory_order_seq_cst) != 0)
            return Outcome::kInvalid;  // readers inside: fail the try
        node.kind = Kind::kWriter;
        node.next.store(nullptr, std::memory_order_relaxed);
        node.state.store(0, std::memory_order_relaxed);
        Node* expected = nullptr;
        if (!tail_.compare_exchange_strong(expected, &node,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
            return Outcome::kInvalid;
        if (claim_empty(node))
            return Outcome::kAcquiredEmpty;
        return retract_or_commit_write(node);
    }

    /// Releases an exclusive acquisition.
    void end_write(Node& node)
    {
        Node* succ = node.next.load(std::memory_order_acquire);
        Node* expected = &node;
        if (succ != nullptr ||
            !tail_.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
            while ((succ = node.next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            if (succ->kind == Kind::kReader)
                reader_count_.fetch_add(1, std::memory_order_seq_cst);
            succ->state.fetch_or(kGoBit, std::memory_order_release);
        }
    }

    // ---- consensus-object entry points (reactive rwlock only) --------

    /**
     * Captures the INVALID tail, making @p node the writer of a freshly
     * validated queue. Must be called only by a process holding the
     * valid consensus object of the other protocol (serialization of
     * protocol changes). Competing bogus chains from late
     * wrong-protocol arrivals are waited out.
     */
    void acquire_invalid_write(Node& node)
    {
        for (;;) {
            node.kind = Kind::kWriter;
            node.next.store(nullptr, std::memory_order_relaxed);
            node.state.store(0, std::memory_order_relaxed);
            Node* pred = tail_.exchange(&node, std::memory_order_acq_rel);
            if (pred == invalid_tail()) {
                node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
                return;
            }
            assert(pred != nullptr &&
                   "queue must not be valid-free while another protocol "
                   "is valid");
            // We appended onto a bogus chain; its head will dismantle
            // it and signal us INVALID. Wait it out and retry.
            pred->next.store(&node, std::memory_order_release);
            while ((node.state.load(std::memory_order_acquire) &
                    (kGoBit | kInvalidBit)) == 0)
                P::pause();
        }
    }

    /**
     * Retires the queue protocol: swings the tail to INVALID and walks
     * the chain from @p head signalling INVALID to every node. Callers:
     * the queue's holding *writer* performing a protocol change (head =
     * its own node; exclusivity guarantees that no reader is counted
     * and no writer is marked waiting, so no auxiliary state needs
     * repair), or the internal bogus-chain cleanup.
     */
    void invalidate(Node* head)
    {
        Node* tail = tail_.exchange(invalid_tail(), std::memory_order_acq_rel);
        while (head != tail) {
            Node* next;
            while ((next = head->next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            head->state.fetch_or(kInvalidBit, std::memory_order_release);
            head = next;
        }
        head->state.fetch_or(kInvalidBit, std::memory_order_release);
    }

    // ---- racy inspection (tests, monitoring) -------------------------

    bool is_invalid() const
    {
        return tail_.load(std::memory_order_relaxed) == invalid_tail();
    }

    std::uint32_t reader_count() const
    {
        return reader_count_.load(std::memory_order_relaxed) & ~kWriterWaiting;
    }

  private:
    /// White-box access for tests/test_rw.cpp: retract_or_commit_write
    /// resolves a race (the drained-reader-group window) that no
    /// sequence of complete public calls can reproduce on the
    /// deterministic simulator, so its branches are driven directly.
    friend struct QueueRwLockTestPeer;

    /// Flag in the reader-count word: a writer is registered in
    /// next_writer_ and the last leaving reader must grant it.
    static constexpr std::uint32_t kWriterWaiting = 1u << 31;

    static Node* invalid_tail()
    {
        return reinterpret_cast<Node*>(static_cast<std::uintptr_t>(1));
    }

    /**
     * Drops the calling reader's unit from the count word — and, for a
     * reader handing off to the writer behind it (@p hand_off), sets
     * kWriterWaiting — in one RMW. The step that leaves the word at
     * exactly kWriterWaiting (no reader inside, a writer waiting) has
     * claimed that writer: nothing else writes the word until the
     * writer is granted, because the writer holds the queue and no
     * reader can enter, so clearing it is a plain store.
     */
    void leave_group(bool hand_off)
    {
        std::uint32_t left;
        if (hand_off) {
            const std::uint32_t prev = reader_count_.fetch_add(
                kWriterWaiting - 1, std::memory_order_seq_cst);
            assert((prev & kWriterWaiting) == 0 &&
                   "one writer waits behind a reader group at a time");
            left = prev + kWriterWaiting - 1;
        } else {
            left = reader_count_.fetch_sub(1, std::memory_order_seq_cst) - 1;
        }
        if (left == kWriterWaiting) {
            Node* w = next_writer_.load(std::memory_order_seq_cst);
            reader_count_.store(0, std::memory_order_seq_cst);
            w->state.fetch_or(kGoBit, std::memory_order_release);
        }
    }

    /// A reader with reader predecessor @p pred atomically registers as
    /// its reader successor, verifying in the same step that @p pred is
    /// still a plain waiting node. True = registered (or @p pred is
    /// invalidated): the caller must block — the grant will arrive from
    /// @p pred's propagation (or the invalidator's chain walk). False =
    /// @p pred is already active: the caller joins it immediately.
    static bool reader_must_block(Node& pred)
    {
        std::uint32_t expected = 0;
        if (pred.state.compare_exchange_strong(expected, kSuccReaderBit,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire))
            return true;
        return (expected & kInvalidBit) != 0;
    }

    /// Propagates this reader's grant to an immediately following
    /// reader (registered via kSuccReaderBit), so consecutive readers
    /// overlap.
    void propagate_reader_grant(Node& node)
    {
        if (node.state.load(std::memory_order_acquire) & kSuccReaderBit) {
            Node* succ;
            while ((succ = node.next.load(std::memory_order_acquire)) ==
                   nullptr)
                P::pause();
            reader_count_.fetch_add(1, std::memory_order_seq_cst);
            succ->state.fetch_or(kGoBit, std::memory_order_release);
        }
    }

    /**
     * The empty-tail writer handshake: the queue is empty, but a
     * departing reader group may still be draining (its readers are
     * counted, no longer queued). Holding the tail, we keep any new
     * reader out, so the count only falls: zero means the lock is
     * ours. Otherwise register in next_writer_ and set kWriterWaiting
     * in one RMW that also reads the count — either that RMW sees the
     * group gone (we withdraw the flag and take the lock) or the last
     * leaving reader sees the flag and grants us (leave_group). True =
     * self-granted; false = registered, and the grant (or a
     * retraction, for tries) is the caller's problem.
     */
    bool claim_empty(Node& node)
    {
        if (reader_count_.load(std::memory_order_seq_cst) != 0) {
            next_writer_.store(&node, std::memory_order_seq_cst);
            if (reader_count_.fetch_or(kWriterWaiting,
                                       std::memory_order_seq_cst) != 0)
                return false;
            reader_count_.store(0, std::memory_order_seq_cst);
        }
        node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
        return true;
    }

    /**
     * Unwinds try_start_write's registration: a drained reader group
     * is still inside, and a try must not wait out its
     * application-controlled critical section. Withdrawal clears
     * kWriterWaiting while readers are still counted; once the last
     * leaving reader's decrement has left the word at kWriterWaiting
     * (or already cleared it), it has claimed the node and the GO
     * signal is in flight, so the node cannot be retired (a reuse of
     * the node would race with the stale signal) and the attempt
     * commits: the lock is ours as soon as the handoff lands. After a
     * successful withdrawal the tail CAS can fail only because a
     * successor enqueued behind us; a mid-queue node cannot leave an
     * MCS-style queue, so that case redoes the empty-tail handshake —
     * blocking, but only when another thread has already blocked
     * behind us anyway.
     */
    Outcome retract_or_commit_write(Node& node)
    {
        std::uint32_t seen = reader_count_.load(std::memory_order_seq_cst);
        do {
            if ((seen & kWriterWaiting) == 0 || seen == kWriterWaiting)
                return wait_for_signal(node) ? Outcome::kAcquiredWaited
                                             : Outcome::kInvalid;
        } while (!reader_count_.compare_exchange_strong(
            seen, seen & ~kWriterWaiting, std::memory_order_seq_cst,
            std::memory_order_seq_cst));
        Node* expected = &node;
        if (tail_.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed))
            return Outcome::kInvalid;  // fully retracted: clean failed try
        // Committed by a successor: redo the empty-tail handshake.
        if (claim_empty(node))
            return Outcome::kAcquiredWaited;
        return wait_for_signal(node) ? Outcome::kAcquiredWaited
                                     : Outcome::kInvalid;
    }

    /// Shared-acquisition body, parameterized on the blocking wait
    /// (@p wait(node) -> true on GO, false on INVALID).
    template <typename Waiter>
    Outcome start_read_with(Node& node, Waiter&& wait)
    {
        node.kind = Kind::kReader;
        node.next.store(nullptr, std::memory_order_relaxed);
        node.state.store(0, std::memory_order_relaxed);
        Node* pred = tail_.exchange(&node, std::memory_order_acq_rel);
        if (pred == invalid_tail()) {
            // We head a bogus post-retirement chain; dismantle it so
            // anyone queued behind us retries too.
            invalidate(&node);
            return Outcome::kInvalid;
        }
        Outcome out;
        if (pred == nullptr) {
            reader_count_.fetch_add(1, std::memory_order_seq_cst);
            node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
            out = Outcome::kAcquiredEmpty;
        } else if (pred->kind == Kind::kWriter ||
                   reader_must_block(*pred)) {
            // Predecessor is a writer, a still-waiting reader we just
            // registered with (it will propagate the grant), or an
            // invalidated node (the invalidator's chain walk will reach
            // us through the link we are about to publish). Block.
            pred->next.store(&node, std::memory_order_release);
            if (!wait(node))
                return Outcome::kInvalid;
            out = Outcome::kAcquiredWaited;
        } else {
            // Predecessor is an *active* reader: join it immediately.
            reader_count_.fetch_add(1, std::memory_order_seq_cst);
            pred->next.store(&node, std::memory_order_release);
            node.state.fetch_or(kGoBit, std::memory_order_acq_rel);
            out = Outcome::kAcquiredWaited;
        }
        propagate_reader_grant(node);
        return out;
    }

    /// Exclusive-acquisition body, parameterized like start_read_with.
    template <typename Waiter>
    Outcome start_write_with(Node& node, Waiter&& wait)
    {
        node.kind = Kind::kWriter;
        node.next.store(nullptr, std::memory_order_relaxed);
        node.state.store(0, std::memory_order_relaxed);
        Node* pred = tail_.exchange(&node, std::memory_order_acq_rel);
        if (pred == invalid_tail()) {
            invalidate(&node);
            return Outcome::kInvalid;
        }
        if (pred == nullptr) {
            if (claim_empty(node))
                return Outcome::kAcquiredEmpty;
            return wait(node) ? Outcome::kAcquiredWaited : Outcome::kInvalid;
        }
        pred->state.fetch_or(kSuccWriterBit, std::memory_order_release);
        pred->next.store(&node, std::memory_order_release);
        return wait(node) ? Outcome::kAcquiredWaited : Outcome::kInvalid;
    }

    /// Spins on the node's own state word; true = GO, false = INVALID.
    bool wait_for_signal(Node& node)
    {
        std::uint32_t s;
        while (((s = node.state.load(std::memory_order_acquire)) &
                (kGoBit | kInvalidBit)) == 0)
            P::pause();
        return (s & kGoBit) != 0;
    }

    /// Site-dispatched twin of wait_for_signal (pure predicate: the
    /// grant/invalid bits are pushed into the node by others).
    template <typename Site, typename Result>
    bool wait_for_signal(Node& node, Site& site, Result& wr)
    {
        std::uint32_t s = 0;
        wr = site.await([&] {
            return ((s = node.state.load(std::memory_order_acquire)) &
                    (kGoBit | kInvalidBit)) != 0;
        });
        return (s & kGoBit) != 0;
    }

    // Tail is the hot enqueue point; the reader-count word (with the
    // kWriterWaiting flag) and the writer-handoff pointer are written on
    // different paths — keep each on its own line.
    alignas(kCacheLineSize) typename P::template Atomic<Node*> tail_{nullptr};
    alignas(kCacheLineSize)
        typename P::template Atomic<std::uint32_t> reader_count_{0};
    alignas(kCacheLineSize)
        typename P::template Atomic<Node*> next_writer_{nullptr};
};

}  // namespace reactive
