/**
 * @file
 * Message-passing queue lock (thesis Section 3.6).
 *
 * A designated processor acts as the lock manager. Requesters send a
 * REQUEST message and spin on a processor-local flag; the manager's
 * atomic handler either grants immediately or appends the requester to
 * a FIFO queue; RELEASE hands the lock to the next waiter. Exactly two
 * messages per uncontended acquire (request + grant), mirroring the
 * protocol the thesis describes.
 *
 * These protocols target the simulated machine: they need an
 * atomic-message-handler substrate (Alewife's message layer), which is
 * what `sim::Machine::send` models. Manager state is touched only
 * inside handlers running on the manager's processor, so it needs no
 * locks — the atomicity of handlers is the synchronization, exactly as
 * on Alewife [54].
 *
 * The `valid` flag and RETRY replies are the reactive hooks: the
 * manager handler is the protocol's in-consensus point (Section 3.6:
 * "a process reaches in-consensus when executing inside an atomic
 * message handler"). The lock speaks ReactiveQueue's consensus-object
 * dialect (acquire/Outcome, release, acquire_invalid, invalidate), so
 * it drops into ReactiveLock as the queue slot: the reactive
 * shared-memory <-> message-passing lock of Section 3.6 is
 * `ReactiveLock<sim::SimPlatform, AlwaysSwitchPolicy, MessageQueueLock>`
 * (msg/reactive_msg.hpp), with the grant's queue-depth hint as the
 * empty-queue signal.
 */
#pragma once

#include <cstdint>
#include <deque>

#include "sim/machine.hpp"

namespace reactive::msg {

/// Reply codes delivered to a requester's local mailbox flag.
enum class LockReply : std::uint8_t { kPending = 0, kGranted, kRetry };

/**
 * Centralized message-passing mutual-exclusion lock.
 *
 * `valid` is manipulated only through manager-side handlers
 * (in-consensus); when invalid, requests are answered with RETRY so the
 * reactive dispatcher can fall back to the shared-memory protocol.
 */
class MessageQueueLock {
  public:
    /// Requester-local mailbox; lives on the caller's stack.
    struct Node {
        LockReply reply = LockReply::kPending;
        bool queue_was_empty = false;  ///< contention hint piggybacked on grant
    };

    /// How an acquisition attempt concluded (ReactiveQueue's dialect).
    enum class Outcome {
        kAcquiredEmpty,   ///< granted with no other waiter queued
        kAcquiredWaited,  ///< granted while others were still queued
        kInvalid,         ///< RETRY: protocol retired; use the other one
    };

    /// @param initially_valid false for reactive composition.
    /// @param manager processor hosting the lock manager.
    MessageQueueLock(bool initially_valid, std::uint32_t manager)
        : manager_(manager), valid_(initially_valid)
    {
    }

    /// Requests the lock and spins on the local mailbox for the reply.
    Outcome acquire(Node& node)
    {
        node.reply = LockReply::kPending;
        sim::Machine& m = *sim::current_machine();
        const std::uint32_t self = sim::current_cpu();
        Node* pn = &node;
        m.send(manager_, [this, &m, self, pn] {
            if (!valid_) {
                m.send(self, [pn] { pn->reply = LockReply::kRetry; });
            } else if (!held_) {
                held_ = true;
                m.send(self, [pn] {
                    pn->reply = LockReply::kGranted;
                    pn->queue_was_empty = true;
                });
            } else {
                waiters_.push_back({self, pn});
            }
        });
        while (node.reply == LockReply::kPending)
            sim::pause();
        if (node.reply != LockReply::kGranted)
            return Outcome::kInvalid;
        return node.queue_was_empty ? Outcome::kAcquiredEmpty
                                    : Outcome::kAcquiredWaited;
    }

    /// Releases the lock (holder only).
    void release(Node& /*node*/)
    {
        sim::Machine& m = *sim::current_machine();
        m.send(manager_, [this, &m] { grant_next(m); });
    }

    /**
     * Releases and retires the protocol (holder only): queued waiters
     * are answered RETRY. The holder's mailbox @p head is not needed —
     * the manager's queue is the chain to dismantle.
     */
    void invalidate(Node* /*head*/)
    {
        sim::Machine& m = *sim::current_machine();
        m.send(manager_, [this, &m] {
            valid_ = false;
            held_ = false;
            while (!waiters_.empty()) {
                Waiter w = waiters_.front();
                waiters_.pop_front();
                m.send(w.proc, [pn = w.node] { pn->reply = LockReply::kRetry; });
            }
        });
    }

    /**
     * Validates the protocol with the caller as holder (caller must be
     * in-consensus on the previously valid protocol). Spins until the
     * manager acknowledges; the acknowledgement does not use @p node.
     */
    void acquire_invalid(Node& /*node*/)
    {
        sim::Machine& m = *sim::current_machine();
        const std::uint32_t self = sim::current_cpu();
        bool acked = false;
        bool* pa = &acked;
        m.send(manager_, [this, &m, self, pa] {
            valid_ = true;
            held_ = true;
            m.send(self, [pa] { *pa = true; });
        });
        while (!acked)
            sim::pause();
    }

    std::uint32_t manager() const { return manager_; }

  private:
    struct Waiter {
        std::uint32_t proc;
        Node* node;
    };

    /// Manager-side: pass the lock to the next waiter or free it.
    void grant_next(sim::Machine& m)
    {
        if (waiters_.empty()) {
            held_ = false;
            return;
        }
        Waiter w = waiters_.front();
        waiters_.pop_front();
        const bool was_last = waiters_.empty();
        m.send(w.proc, [pn = w.node, was_last] {
            pn->queue_was_empty = was_last;
            pn->reply = LockReply::kGranted;
        });
    }

    const std::uint32_t manager_;
    // Manager-handler state (no locks needed: handlers are atomic and
    // run only on the manager's processor).
    bool valid_;
    bool held_ = false;
    std::deque<Waiter> waiters_;
};

}  // namespace reactive::msg
