// Tests for the message-passing protocols (Section 3.6): centralized
// lock manager, centralized fetch-and-op server, message combining
// tree, and the reactive algorithms that select between shared-memory
// and message-passing protocols.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "msg/message_fetch_op.hpp"
#include "msg/message_lock.hpp"
#include "msg/reactive_msg.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace reactive::msg {
namespace {

TEST(MessageQueueLockTest, MutualExclusion)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sim::Machine m(8, sim::CostModel::alewife(), seed);
        auto lock = std::make_shared<MessageQueueLock>(true, 0);
        auto inside = std::make_shared<int>(0);
        auto violations = std::make_shared<int>(0);
        auto count = std::make_shared<long>(0);
        for (std::uint32_t p = 0; p < 8; ++p) {
            m.spawn(p, [=] {
                for (int i = 0; i < 30; ++i) {
                    MessageQueueLock::Node n;
                    ASSERT_NE(lock->acquire(n),
                              MessageQueueLock::Outcome::kInvalid);
                    if (++*inside != 1)
                        ++*violations;
                    sim::delay(20 + sim::random_below(50));
                    --*inside;
                    ++*count;
                    lock->release(n);
                    sim::delay(sim::random_below(100));
                }
            });
        }
        m.run();
        EXPECT_EQ(*violations, 0);
        EXPECT_EQ(*count, 8 * 30);
    }
}

TEST(MessageQueueLockTest, FifoGrantOrder)
{
    sim::Machine m(6);
    auto lock = std::make_shared<MessageQueueLock>(true, 0);
    auto grants = std::make_shared<std::vector<int>>();
    for (std::uint32_t p = 0; p < 6; ++p) {
        m.spawn(p, [=] {
            sim::delay(300 * (p + 1));  // deterministic staggered arrivals
            MessageQueueLock::Node n;
            lock->acquire(n);
            grants->push_back(static_cast<int>(p));
            sim::delay(2000);
            lock->release(n);
        });
    }
    m.run();
    EXPECT_EQ(*grants, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(MessageQueueLockTest, InvalidLockRepliesRetry)
{
    sim::Machine m(2);
    auto lock =
        std::make_shared<MessageQueueLock>(/*initially_valid=*/false, 0);
    auto got_retry = std::make_shared<bool>(false);
    m.spawn(1, [=] {
        MessageQueueLock::Node n;
        *got_retry = lock->acquire(n) == MessageQueueLock::Outcome::kInvalid;
    });
    m.run();
    EXPECT_TRUE(*got_retry);
}

TEST(MessageQueueLockTest, GrantCarriesQueueDepthHint)
{
    // The hint is the Outcome the reactive lock reads: a grant with no
    // other waiter queued is kAcquiredEmpty.
    using O = MessageQueueLock::Outcome;
    sim::Machine m(3);
    auto lock = std::make_shared<MessageQueueLock>(true, 0);
    auto hints = std::make_shared<std::vector<bool>>();
    m.spawn(0, [=] {
        MessageQueueLock::Node n;
        hints->push_back(lock->acquire(n) == O::kAcquiredEmpty);  // free
        sim::delay(3000);  // both others queue behind
        lock->release(n);
    });
    for (std::uint32_t p = 1; p < 3; ++p) {
        m.spawn(p, [=] {
            sim::delay(300 * p);
            MessageQueueLock::Node n;
            const O oc = lock->acquire(n);
            EXPECT_EQ(oc == O::kAcquiredEmpty, n.queue_was_empty);
            hints->push_back(oc == O::kAcquiredEmpty);
            sim::delay(100);
            lock->release(n);
        });
    }
    m.run();
    ASSERT_EQ(hints->size(), 3u);
    EXPECT_TRUE((*hints)[0]);
    EXPECT_FALSE((*hints)[1]);  // another waiter was still queued
    EXPECT_TRUE((*hints)[2]);   // last waiter drained the queue
}

void expect_dense(std::vector<FetchOpValue> priors)
{
    std::sort(priors.begin(), priors.end());
    for (std::size_t i = 0; i < priors.size(); ++i)
        ASSERT_EQ(priors[i], static_cast<FetchOpValue>(i));
}

TEST(MessageFetchOpTest, LinearizableUnderContention)
{
    sim::Machine m(16);
    auto f = std::make_shared<MessageFetchOp>(0);
    auto priors = std::make_shared<std::vector<FetchOpValue>>();
    for (std::uint32_t p = 0; p < 16; ++p) {
        m.spawn(p, [=] {
            MessageFetchOp::Node n;
            for (int i = 0; i < 25; ++i) {
                ASSERT_TRUE(f->fetch_add(n, 1));
                priors->push_back(n.prior);
                sim::delay(sim::random_below(100));
            }
        });
    }
    m.run();
    ASSERT_EQ(priors->size(), 16u * 25u);
    expect_dense(std::move(*priors));
    EXPECT_EQ(f->read_quiescent(), 16 * 25);
}

TEST(MessageFetchOpTest, TwoMessagesPerUncontendedOp)
{
    sim::Machine m(2);
    auto f = std::make_shared<MessageFetchOp>(0);
    m.spawn(1, [=] {
        MessageFetchOp::Node n;
        f->fetch_add(n, 1);
    });
    m.run();
    EXPECT_EQ(m.stats().messages, 2u);  // request + reply
}

TEST(MessageFetchOpTest, HotHintUnderBackToBackLoad)
{
    sim::Machine m(16);
    auto f = std::make_shared<MessageFetchOp>(0);
    auto hot_seen = std::make_shared<bool>(false);
    for (std::uint32_t p = 0; p < 16; ++p) {
        m.spawn(p, [=] {
            MessageFetchOp::Node n;
            for (int i = 0; i < 20; ++i) {
                f->fetch_add(n, 1);
                if (n.hot)
                    *hot_seen = true;
            }
        });
    }
    m.run();
    EXPECT_TRUE(*hot_seen);
}

TEST(MessageCombiningTreeTest, LinearizableAndCombines)
{
    sim::Machine m(32);
    auto t = std::make_shared<MessageCombiningTree>(32);
    auto priors = std::make_shared<std::vector<FetchOpValue>>();
    auto max_batch = std::make_shared<std::uint32_t>(0);
    for (std::uint32_t p = 0; p < 32; ++p) {
        m.spawn(p, [=] {
            MessageCombiningTree::Node n;
            for (int i = 0; i < 15; ++i) {
                ASSERT_TRUE(t->fetch_add(n, 1));
                priors->push_back(n.prior);
                *max_batch = std::max(*max_batch, n.batch);
                sim::delay(sim::random_below(80));
            }
        });
    }
    m.run();
    ASSERT_EQ(priors->size(), 32u * 15u);
    expect_dense(std::move(*priors));
    EXPECT_EQ(t->read_quiescent(), 32 * 15);
    EXPECT_GT(*max_batch, 1u);  // combining actually happened
}

TEST(MessageCombiningTreeTest, SingleProcessorStillWorks)
{
    sim::Machine m(1);
    auto t = std::make_shared<MessageCombiningTree>(1, 100);
    auto ok = std::make_shared<bool>(true);
    m.spawn(0, [=] {
        MessageCombiningTree::Node n;
        for (FetchOpValue i = 0; i < 20; ++i) {
            *ok = *ok && t->fetch_add(n, 1) && n.prior == 100 + i;
        }
    });
    m.run();
    EXPECT_TRUE(*ok);
    EXPECT_EQ(t->read_quiescent(), 120);
}

TEST(MessageCombiningTreeTest, InvalidTreeRetries)
{
    sim::Machine m(4);
    auto t = std::make_shared<MessageCombiningTree>(4, 0, /*initially_valid=*/false);
    auto retries = std::make_shared<int>(0);
    for (std::uint32_t p = 0; p < 4; ++p) {
        m.spawn(p, [=] {
            MessageCombiningTree::Node n;
            if (!t->fetch_add(n, 1))
                ++*retries;
        });
    }
    m.run();
    EXPECT_EQ(*retries, 4);
}

// ---- reactive shared-memory <-> message-passing algorithms -----------

TEST(ReactiveMessageLockTest, MutualExclusionAndAdaptation)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sim::Machine m(16, sim::CostModel::alewife(), seed);
        auto lock = std::make_shared<ReactiveMessageLock>(
            ReactiveLockParams{}, AlwaysSwitchPolicy{}, 0u);
        auto inside = std::make_shared<int>(0);
        auto violations = std::make_shared<int>(0);
        auto count = std::make_shared<long>(0);
        for (std::uint32_t p = 0; p < 16; ++p) {
            m.spawn(p, [=] {
                for (int i = 0; i < 25; ++i) {
                    ReactiveMessageLock::Node n;
                    auto rm = lock->acquire(n);
                    if (++*inside != 1)
                        ++*violations;
                    sim::delay(20 + sim::random_below(50));
                    --*inside;
                    ++*count;
                    lock->release(n, rm);
                    sim::delay(sim::random_below(100));
                }
            });
        }
        m.run();
        EXPECT_EQ(*violations, 0);
        EXPECT_EQ(*count, 16 * 25);
        // Heavy contention must have driven it to the message protocol.
        EXPECT_GT(lock->protocol_changes(), 0u);
    }
}

TEST(ReactiveMessageLockTest, UncontendedStaysSharedMemory)
{
    sim::Machine m(2);
    auto lock = std::make_shared<ReactiveMessageLock>(
        ReactiveLockParams{}, AlwaysSwitchPolicy{}, 0u);
    m.spawn(1, [=] {
        for (int i = 0; i < 100; ++i) {
            ReactiveMessageLock::Node n;
            auto rm = lock->acquire(n);
            sim::delay(10);
            lock->release(n, rm);
            sim::delay(50);
        }
    });
    m.run();
    EXPECT_EQ(lock->protocol_changes(), 0u);
    EXPECT_EQ(lock->mode(), ReactiveMessageLock::Mode::kTts);
}

/// One round of @p procs processors acquiring @p lock once each at
/// the same instant and holding it 100 cycles. Each then idles until
/// its release message has reached the manager: Machine::run() returns
/// when the processes finish, not when their messages land.
void reactive_msg_round(ReactiveMessageLock& lock, std::uint32_t procs)
{
    sim::Machine m(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [&lock] {
            ReactiveMessageLock::Node n;
            const auto rm = lock.acquire(n);
            sim::delay(100);
            lock.release(n, rm);
            sim::delay(2000);
        });
    }
    m.run();
}

TEST(ReactiveMessageLockTest, EmptyStreakRestartsOnReentry)
{
    // The empty-grant streak that moved the lock msg -> TTS must not
    // carry over into its next stay in msg mode: the thesis' signal is
    // 4 consecutive empty grants *in that stay*. With retry limit 0 one
    // lost test&set race is contended, and three processors arriving
    // together lose one, so each three-processor round switches
    // TTS -> msg.
    ReactiveLockParams params;
    params.tts_retry_limit = 0;
    ReactiveMessageLock lock(params, AlwaysSwitchPolicy{}, 0u);
    using Mode = ReactiveMessageLock::Mode;

    reactive_msg_round(lock, 3);
    ASSERT_EQ(lock.mode(), Mode::kQueue);
    ASSERT_EQ(lock.protocol_changes(), 1u);
    for (int i = 0; i < 4; ++i)
        reactive_msg_round(lock, 1);  // 4 empty grants: back to TTS
    ASSERT_EQ(lock.mode(), Mode::kTts);
    ASSERT_EQ(lock.protocol_changes(), 2u);
    reactive_msg_round(lock, 3);
    ASSERT_EQ(lock.mode(), Mode::kQueue);
    ASSERT_EQ(lock.protocol_changes(), 3u);

    for (int i = 0; i < 3; ++i)
        reactive_msg_round(lock, 1);
    EXPECT_EQ(lock.mode(), Mode::kQueue);
    EXPECT_EQ(lock.protocol_changes(), 3u);
}

TEST(ReactiveMessageFetchOpTest, LinearizableAcrossProtocolChanges)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sim::Machine m(24, sim::CostModel::alewife(), seed);
        auto f = std::make_shared<ReactiveMessageFetchOp>(24, 0);
        auto priors = std::make_shared<std::vector<FetchOpValue>>();
        for (std::uint32_t p = 0; p < 24; ++p) {
            m.spawn(p, [=] {
                ReactiveMessageFetchOp::Node n;
                for (int i = 0; i < 20; ++i) {
                    priors->push_back(f->fetch_add(n, 1));
                    sim::delay(sim::random_below(120));
                }
            });
        }
        m.run();
        ASSERT_EQ(priors->size(), 24u * 20u);
        expect_dense(std::move(*priors));
        EXPECT_EQ(f->read_quiescent(), 24 * 20);
        EXPECT_GT(f->protocol_changes(), 0u);
    }
}

TEST(ReactiveMessageFetchOpTest, UncontendedStaysTts)
{
    sim::Machine m(2);
    auto f = std::make_shared<ReactiveMessageFetchOp>(2, 0);
    m.spawn(1, [=] {
        ReactiveMessageFetchOp::Node n;
        for (int i = 0; i < 100; ++i) {
            f->fetch_add(n, 1);
            sim::delay(40);
        }
    });
    m.run();
    EXPECT_EQ(f->protocol_changes(), 0u);
    EXPECT_EQ(f->read_quiescent(), 100);
}

}  // namespace
}  // namespace reactive::msg
