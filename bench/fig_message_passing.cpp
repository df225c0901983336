/**
 * @file
 * Reproduces Figure 3.26: baseline comparison of shared-memory vs
 * message-passing protocols for spin locks and fetch-and-op, plus the
 * reactive algorithms that select between them (Section 3.6).
 */
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "msg/message_fetch_op.hpp"
#include "msg/message_lock.hpp"
#include "msg/reactive_msg.hpp"

using namespace reactive;
using namespace reactive::bench;

namespace {

/// Baseline loop: @p iteration performs one lock/critical/unlock round
/// against the shared object.
template <typename MakeFn, typename IterFn>
double msg_lock_overhead(std::uint32_t procs, bool full, std::uint64_t seed,
                         MakeFn make, IterFn iteration)
{
    const std::uint32_t iters = baseline_iters(procs, full);
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto obj = make(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t i = 0; i < iters; ++i) {
                iteration(*obj);
                sim::delay(sim::random_below(500));
            }
        });
    }
    m.run();
    return static_cast<double>(m.elapsed()) /
               (static_cast<double>(procs) * iters) -
           spinlock_loop_latency(procs);
}

template <typename MakeFn, typename OpFn>
double msg_fetchop_overhead(std::uint32_t procs, bool full, std::uint64_t seed,
                            MakeFn make, OpFn op_fn)
{
    const std::uint32_t iters = baseline_iters(procs, full);
    sim::Machine m(procs, sim::CostModel::alewife(), seed);
    auto obj = make(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
        m.spawn(p, [=] {
            for (std::uint32_t i = 0; i < iters; ++i) {
                op_fn(*obj);
                sim::delay(sim::random_below(500));
            }
        });
    }
    m.run();
    return static_cast<double>(m.elapsed()) /
               (static_cast<double>(procs) * iters) -
           250.0 / procs;
}

}  // namespace

int main(int argc, char** argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    start_trace(args);
    const auto procs = baseline_procs(args.full);

    {
        stats::Table t(
            "Fig 3.26 (locks): shared-memory vs message-passing overhead "
            "cycles per critical section");
        std::vector<std::string> header{"algorithm"};
        for (std::uint32_t p : procs)
            header.push_back("P=" + std::to_string(p));
        t.header(header);

        std::vector<std::string> tts_row{"tts (shared memory)"},
            mcs_row{"mcs (shared memory)"}, msg_row{"msg queue lock"},
            rea_row{"reactive shm<->msg"};
        for (std::uint32_t p : procs) {
            tts_row.push_back(stats::fmt(
                spinlock_overhead<TtsSim>(p, args.full,
                                          sim::CostModel::alewife(),
                                          args.seed),
                0));
            mcs_row.push_back(stats::fmt(
                spinlock_overhead<McsSim>(p, args.full,
                                          sim::CostModel::alewife(),
                                          args.seed),
                0));
            msg_row.push_back(stats::fmt(
                msg_lock_overhead(
                    p, args.full, args.seed,
                    [](std::uint32_t) {
                        return std::make_shared<msg::MessageQueueLock>(
                            /*initially_valid=*/true, /*manager=*/0);
                    },
                    [](msg::MessageQueueLock& l) {
                        msg::MessageQueueLock::Node n;
                        l.acquire(n);
                        sim::delay(100);
                        l.release(n);
                    }),
                0));
            rea_row.push_back(stats::fmt(
                msg_lock_overhead(
                    p, args.full, args.seed,
                    [](std::uint32_t) {
                        return std::make_shared<msg::ReactiveMessageNodeLock>(
                            ReactiveLockParams{}, AlwaysSwitchPolicy{},
                            /*manager=*/0u);
                    },
                    [](msg::ReactiveMessageNodeLock& l) {
                        msg::ReactiveMessageNodeLock::Node n;
                        l.lock(n);
                        sim::delay(100);
                        l.unlock(n);
                    }),
                0));
            std::cerr << "." << std::flush;
        }
        std::cerr << "\n";
        t.row(tts_row);
        t.row(mcs_row);
        t.row(msg_row);
        t.row(rea_row);
        t.note("paper finding: on Alewife the msg queue lock trails the");
        t.note("shared-memory MCS lock at every contention level");
        t.print();
    }

    {
        stats::Table t(
            "Fig 3.26 (fetch-and-op): shared-memory vs message-passing "
            "overhead cycles per operation");
        std::vector<std::string> header{"algorithm"};
        for (std::uint32_t p : procs)
            header.push_back("P=" + std::to_string(p));
        t.header(header);

        std::vector<std::string> shm{"tts-lock counter (shm)"},
            srv{"msg centralized"}, tree{"msg combining tree"},
            rea{"reactive shm<->msg"};
        for (std::uint32_t p : procs) {
            shm.push_back(stats::fmt(
                fetchop_overhead<TtsFetchOpSim>(p, args.full,
                                                sim::CostModel::alewife(),
                                                args.seed),
                0));
            srv.push_back(stats::fmt(
                msg_fetchop_overhead(
                    p, args.full, args.seed,
                    [](std::uint32_t) {
                        return std::make_shared<msg::MessageFetchOp>(0);
                    },
                    [](msg::MessageFetchOp& f) {
                        msg::MessageFetchOp::Node n;
                        f.fetch_add(n, 1);
                    }),
                0));
            tree.push_back(stats::fmt(
                msg_fetchop_overhead(
                    p, args.full, args.seed,
                    [](std::uint32_t nprocs) {
                        return std::make_shared<msg::MessageCombiningTree>(
                            nprocs);
                    },
                    [](msg::MessageCombiningTree& f) {
                        msg::MessageCombiningTree::Node n;
                        f.fetch_add(n, 1);
                    }),
                0));
            rea.push_back(stats::fmt(
                msg_fetchop_overhead(
                    p, args.full, args.seed,
                    [](std::uint32_t nprocs) {
                        return std::make_shared<msg::ReactiveMessageFetchOp>(
                            nprocs, 0);
                    },
                    [](msg::ReactiveMessageFetchOp& f) {
                        msg::ReactiveMessageFetchOp::Node n;
                        f.fetch_add(n, 1);
                    }),
                0));
            std::cerr << "." << std::flush;
        }
        std::cerr << "\n";
        t.row(shm);
        t.row(srv);
        t.row(tree);
        t.row(rea);
        t.note("paper finding: message fetch-and-op beats shared memory");
        t.note("under high contention (2 messages/op; atomic handlers)");
        t.print();
    }
    return finish_trace(args);
}
