#include "sim/machine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cassert>
#include <stdexcept>

namespace reactive::sim {

namespace {
std::atomic<std::uint64_t> g_machine_epoch{1};
}  // namespace

Machine::Machine(std::uint32_t nprocs, CostModel costs, std::uint64_t seed)
    : Machine(nprocs, Topology{}, costs, seed)
{
}

Machine::Machine(std::uint32_t nprocs, Topology topo, CostModel costs,
                 std::uint64_t seed)
    : costs_(costs), procs_(nprocs), machine_rng_(seed ^ 0xa5a5a5a5a5a5a5a5ull),
      seed_(seed)
{
    epoch_ = g_machine_epoch.fetch_add(1, std::memory_order_relaxed);
    assert(nprocs >= 1 && nprocs <= kMaxProcs);
    if (costs_.pause_cycles == 0)
        costs_.pause_cycles = 1;  // zero-cost spins would hang virtual time
    sockets_ = topo.sockets < 1 ? 1 : topo.sockets;
    if (sockets_ > nprocs)
        sockets_ = nprocs;  // an empty socket cannot hold a processor
    cores_per_socket_ = topo.cores_per_socket != 0
                            ? topo.cores_per_socket
                            : (nprocs + sockets_ - 1) / sockets_;
    pos_.resize(nprocs);
}

Machine::~Machine() = default;

SimThread* Machine::spawn(std::uint32_t proc, std::function<void()> fn,
                          std::size_t stack_bytes)
{
    assert(proc < procs_.size());
    std::uint64_t seed_state = seed_ + threads_.size() + 1;
    auto* t = new SimThread(static_cast<std::uint32_t>(threads_.size()), proc,
                            std::move(fn), stack_bytes, splitmix64(seed_state));
    threads_.emplace_back(t);
    ++live_threads_;
    ++stats_.threads_spawned;

    std::uint64_t when = 0;
    if (in_run_ && Fiber::current() != nullptr) {
        charge(costs_.spawn_cost);
        when = procs_[cur_proc_].clock;
    }
    t->ready_at_ = when;
    t->state_ = SimThread::State::kReady;
    procs_[proc].ready.push_back(t);
    if (in_run_)
        heap_touch(proc);
    return t;
}

std::uint64_t Machine::next_event(const Proc& p) const
{
    if (!p.contexts.empty())
        return p.clock;
    std::uint64_t e = kNever;
    if (!p.ready.empty())
        e = std::max(p.clock, p.ready.front()->ready_at_);
    if (!p.msgs.empty())
        e = std::min(e, std::max(p.clock, p.msgs.top().arrival));
    return e;
}

// ---- indexed binary min-heap over processors ------------------------
//
// Entries are heap_key(next_event, proc): the processor index in the
// low bits makes every key distinct, so one u64 compare gives the
// (clock, proc) total order with no tie-break branch.

void Machine::heap_build()
{
    heap_.clear();
    for (std::uint32_t i = 0; i < procs_.size(); ++i) {
        heap_.push_back(heap_key(next_event(procs_[i]), i));
        pos_[i] = i;
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;)
        heap_sift(i);
}

void Machine::heap_sift(std::size_t i)
{
    const std::uint64_t k = heap_[i];
    const std::size_t n = heap_.size();
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (heap_[parent] < k)
            break;
        heap_[i] = heap_[parent];
        pos_[key_proc(heap_[i])] = static_cast<std::uint32_t>(i);
        i = parent;
    }
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        std::uint64_t ck = heap_[child];
        if (child + 1 < n) {
            // Branch-free pick of the smaller child: which one wins is
            // data-dependent and mispredicts half the time.
            const std::uint64_t rk = heap_[child + 1];
            const bool right = rk < ck;
            child += right;
            ck = right ? rk : ck;
        }
        if (k < ck)
            break;
        heap_[i] = ck;
        pos_[key_proc(ck)] = static_cast<std::uint32_t>(i);
        i = child;
    }
    heap_[i] = k;
    pos_[key_proc(k)] = static_cast<std::uint32_t>(i);
}

void Machine::heap_touch(std::uint32_t pi)
{
    const std::uint64_t when = next_event(procs_[pi]);
    const std::uint64_t k = heap_key(when, pi);
    const std::uint32_t i = pos_[pi];
    if (heap_[i] == k)
        return;
    heap_[i] = k;
    heap_sift(i);
    if (pi != cur_proc_ && when < run_until_)
        run_until_ = when;
}

std::uint64_t Machine::heap_second_min() const
{
    std::uint64_t s = kNever;
    if (heap_.size() > 1)
        s = heap_[1];
    if (heap_.size() > 2)
        s = std::min(s, heap_[2]);
    s >>= kProcBits;
    return s == kIdleClock ? kNever : s;
}

// ---- scheduling ------------------------------------------------------

void Machine::run()
{
    Machine* outer = detail::t_machine;
    detail::t_machine = this;
    in_run_ = true;
    heap_build();

#ifdef REACTIVE_SIM_TRACE
    std::uint64_t steps = 0;
#endif
    while (live_threads_ > 0) {
#ifdef REACTIVE_SIM_TRACE
        if (++steps % (1u << 22) == 0) {
            std::fprintf(stderr, "[sim] step %llu pick p%u key %llu live %llu:",
                         (unsigned long long)steps, key_proc(heap_[0]),
                         (unsigned long long)(heap_[0] >> kProcBits),
                         (unsigned long long)live_threads_);
            for (std::size_t i = 0; i < procs_.size(); ++i)
                std::fprintf(stderr, " c%zu=%llu(ctx%zu,r%zu,m%zu)", i,
                             (unsigned long long)procs_[i].clock,
                             procs_[i].contexts.size(), procs_[i].ready.size(),
                             procs_[i].msgs.size());
            std::fprintf(stderr, "\n");
        }
#endif
        if ((heap_[0] >> kProcBits) == kIdleClock) {
            in_run_ = false;
            detail::t_machine = outer;
            throw std::runtime_error(
                "reactive::sim::Machine deadlock: live threads but no "
                "runnable processor (lost wakeup?)");
        }
        step();
        heap_touch(cur_proc_);
    }

    in_run_ = false;
    detail::t_machine = outer;
}

SimThread* Machine::dispatch(bool on_fiber)
{
    const std::uint32_t pi = key_proc(heap_[0]);
    Proc& p = procs_[pi];

    if (on_fiber) {
        // Work a fiber may not do: deliver a due message, load a ready
        // thread, arm a quantum (the checks mirror the code below).
        if (p.contexts.empty() ||
            (!p.msgs.empty() && p.msgs.top().arrival <= p.clock))
            return nullptr;
        if (!p.ready.empty() &&
            (p.contexts.size() >= costs_.hardware_contexts
                 ? costs_.preempt_quantum != 0
                 : p.ready.front()->ready_at_ <= p.clock))
            return nullptr;
    }

    cur_proc_ = pi;
    // The running processor may advance until the next other-processor
    // event or its own next message arrival without rescheduling.
    run_until_ = heap_second_min();
    if (!p.msgs.empty())
        run_until_ = std::min(run_until_, p.msgs.top().arrival);

    // Deliver due messages (atomic handlers, Section 3.6).
    if (!p.msgs.empty()) {
        if (p.contexts.empty() &&
            (p.ready.empty() ||
             p.msgs.top().arrival <
                 std::max(p.clock, p.ready.front()->ready_at_))) {
            p.clock = std::max(p.clock, p.msgs.top().arrival);
        }
        deliver_messages(p);
        if (!p.msgs.empty())
            run_until_ = std::min(run_until_, p.msgs.top().arrival);
    }

    // Fill free hardware contexts from the ready queue.
    while (p.contexts.size() < costs_.hardware_contexts && !p.ready.empty()) {
        SimThread* t = p.ready.front();
        if (p.contexts.empty()) {
            p.ready.pop_front();
            p.clock = std::max(p.clock, t->ready_at_) + costs_.thread_reload;
            t->loaded_ = true;
            p.contexts.push_back(t);
            p.cur = p.contexts.size() - 1;
        } else if (t->ready_at_ <= p.clock) {
            p.ready.pop_front();
            p.clock += costs_.thread_reload;
            t->loaded_ = true;
            p.contexts.push_back(t);
        } else {
            break;
        }
    }

    if (p.contexts.empty())
        return nullptr;  // nothing runnable yet (future message/ready time)

    // Preemptive quantum (oversubscription): when unloaded runnable
    // threads are queued behind a full set of hardware contexts, bound
    // how long the resident thread may run before the "OS" forcibly
    // deschedules it. With preempt_quantum == 0 (default) no deadline
    // exists and this whole block is inert — run_until_ and the
    // post-resume dispatch in step() are bit-identical to the
    // cooperative scheduler.
    if (p.cur >= p.contexts.size())
        p.cur %= p.contexts.size();
    preempt_at_ = kNever;
    if (costs_.preempt_quantum != 0 && !p.ready.empty() &&
        p.contexts.size() >= costs_.hardware_contexts) {
        // The deadline belongs to the resident thread, not to this
        // step: it is set once when the thread starts running against
        // a non-empty ready queue and survives reschedules, so the
        // quantum measures accumulated run time.
        if (p.quantum_owner != p.contexts[p.cur]) {
            p.quantum_owner = p.contexts[p.cur];
            p.quantum_deadline = p.clock + costs_.preempt_quantum;
        }
        preempt_at_ = p.quantum_deadline;
        run_until_ = std::min(run_until_, preempt_at_);
    } else {
        p.quantum_owner = nullptr;
    }

    SimThread* t = p.contexts[p.cur];
    t->state_ = SimThread::State::kRunning;
    running_ = t;
    return t;
}

void Machine::step()
{
    SimThread* t = dispatch(false);
    if (t == nullptr)
        return;
    t->fiber_.resume();

    // Fibers may have handed off to one another since: what came back
    // is whatever running_/cur_proc_ now name, not the thread resumed.
    t = running_;
    running_ = nullptr;
    if (t == nullptr)
        return;  // it already requeued itself (reschedule)
    Proc& p = procs_[cur_proc_];

    if (t->fiber_.done()) {
        finish_thread(p, t);
    } else if (t->state_ == SimThread::State::kBlocked) {
        auto it = std::find(p.contexts.begin(), p.contexts.end(), t);
        assert(it != p.contexts.end());
        p.contexts.erase(it);
        t->loaded_ = false;
        if (p.cur >= p.contexts.size())
            p.cur = 0;
    } else if (t->state_ == SimThread::State::kRunning) {
        t->state_ = SimThread::State::kReady;
        if (preempt_at_ != kNever && p.clock >= preempt_at_ &&
            !p.ready.empty()) {
            // Quantum expired with runnable threads still waiting for a
            // context: pay the unload and requeue behind them. The
            // thread re-pays thread_reload when its turn comes back —
            // together the round-trip is the involuntary-switch cost an
            // oversubscribed spinner keeps paying.
            auto it = std::find(p.contexts.begin(), p.contexts.end(), t);
            assert(it != p.contexts.end());
            p.contexts.erase(it);
            t->loaded_ = false;
            if (p.cur >= p.contexts.size())
                p.cur = 0;
            p.clock += costs_.thread_unload;
            t->state_ = SimThread::State::kReady;
            t->ready_at_ = p.clock;
            p.ready.push_back(t);
            p.quantum_owner = nullptr;
            ++stats_.preemptions;
        }
    }
}

void Machine::reschedule()
{
    SimThread* self = running_;
    assert(self != nullptr && self->state_ == SimThread::State::kRunning);
    if (preempt_at_ == kNever) {
        // The bookkeeping step() would do after a yield, done in place.
        self->state_ = SimThread::State::kReady;
        heap_touch(cur_proc_);
        SimThread* next = dispatch(true);
        if (next == self)
            return;
        if (next != nullptr) {
            Fiber::switch_to(next->fiber_);
            return;
        }
        running_ = nullptr;  // requeued: step() has nothing left to do
    }
    Fiber::yield_current();
}
void Machine::deliver_messages(Proc& p)
{
    while (!p.msgs.empty() && p.msgs.top().arrival <= p.clock) {
        // Copy out: the handler may send to this same processor.
        auto handler = p.msgs.top().handler;
        p.msgs.pop();
        p.clock += costs_.msg_handler_overhead;
        ++stats_.handlers;
        handler();
    }
}

void Machine::finish_thread(Proc& p, SimThread* t)
{
    t->state_ = SimThread::State::kDone;
    auto it = std::find(p.contexts.begin(), p.contexts.end(), t);
    if (it != p.contexts.end())
        p.contexts.erase(it);
    t->loaded_ = false;
    if (p.cur >= p.contexts.size())
        p.cur = 0;
    assert(live_threads_ > 0);
    --live_threads_;
}

std::uint64_t Machine::elapsed() const
{
    std::uint64_t e = 0;
    for (const Proc& p : procs_)
        e = std::max(e, p.clock);
    return e;
}

// ---- runtime services ------------------------------------------------

void Machine::send(std::uint32_t dst, std::function<void()> handler)
{
    send_delayed(dst, 0, std::move(handler));
}

void Machine::send_delayed(std::uint32_t dst, std::uint64_t extra_delay,
                           std::function<void()> handler)
{
    assert(dst < procs_.size());
    ++stats_.messages;
    charge(costs_.msg_send_overhead);
    const std::uint64_t arrival =
        procs_[cur_proc_].clock + costs_.msg_latency + extra_delay;
    procs_[dst].msgs.push(Message{arrival, msg_seq_++, std::move(handler)});
    if (dst == cur_proc_) {
        run_until_ = std::min(run_until_, arrival);
    } else {
        heap_touch(dst);
    }
}

void Machine::context_switch()
{
    Proc& p = procs_[cur_proc_];
    if (p.contexts.size() <= 1) {
        charge(costs_.pause_cycles);
        return;
    }
    ++stats_.context_switches;
    charge(costs_.context_switch);
    p.cur = (p.cur + 1) % p.contexts.size();
    reschedule();
}

void Machine::block_current()
{
    assert(running_ != nullptr && "block outside a simulated thread");
    running_->state_ = SimThread::State::kBlocked;
    ++stats_.blocks;
    Fiber::yield_current();
}

void Machine::make_ready(SimThread* t, std::uint64_t when)
{
    assert(t->state_ == SimThread::State::kBlocked);
    t->state_ = SimThread::State::kReady;
    t->ready_at_ = when;
    ++stats_.wakes;
    procs_[t->proc_].ready.push_back(t);
    heap_touch(t->proc_);
}

// ---- SimWaitQueue ----------------------------------------------------

// SimWaitQueue operations tolerate running outside a simulation (no
// current machine): harness code initializes and resolves constructs
// before Machine::run(), when no thread can be blocked yet.

std::uint32_t SimWaitQueue::prepare_wait()
{
    Machine* m = current_machine();
    ++advertised_;
    if (m != nullptr)
        m->charge(m->costs().wait_queue_op);
    return epoch_;
}

void SimWaitQueue::cancel_wait()
{
    Machine* m = current_machine();
    assert(advertised_ > 0 && "cancel_wait without prepare_wait");
    --advertised_;
    if (m != nullptr)
        m->charge(2);
}

void SimWaitQueue::commit_wait(std::uint32_t epoch)
{
    Machine* m = current_machine();
    assert(advertised_ > 0 && "commit_wait without prepare_wait");
    if (m == nullptr) {
        --advertised_;
        return;  // nothing can block outside a simulation
    }
    if (epoch_ != epoch) {
        --advertised_;
        m->charge(2);
        return;
    }
    SimThread* self = m->running_thread();
    assert(self != nullptr && "commit_wait outside a simulated thread");
    // Pay the unload cost (Table 4.1), then re-check: the epoch may have
    // moved while we were being charged.
    m->charge(m->costs().thread_unload);
    if (epoch_ != epoch) {
        --advertised_;
        return;
    }
    waiters_.push_back(self);
    m->block_current();
    // Retract the advertisement only now that the wait completed,
    // exactly as the native commit_wait decrements after its wake
    // loop: a releaser consulting waiters() while we slept counted us.
    --advertised_;
}

void SimWaitQueue::notify_one()
{
    Machine* m = current_machine();
    ++epoch_;
    if (m == nullptr) {
        assert(waiters_.empty());
        return;
    }
    if (waiters_.empty()) {
        m->charge(m->costs().wait_queue_op);
        return;
    }
    // Pop before charging: the charge may yield this fiber (e.g. a
    // preemption), and a concurrent notifier that drains the deque in
    // that window must not leave us reading a stale front().
    SimThread* t = waiters_.front();
    waiters_.pop_front();
    m->charge(m->costs().thread_reenable);
    std::uint64_t when = m->cycles(current_cpu());
    if (t->proc() != current_cpu())
        when += m->costs().msg_latency;
    m->make_ready(t, when);
}

void SimWaitQueue::notify_all()
{
    Machine* m = current_machine();
    ++epoch_;
    if (m == nullptr) {
        assert(waiters_.empty());
        return;
    }
    if (waiters_.empty()) {
        m->charge(m->costs().wait_queue_op);
        return;
    }
    // Wake only the waiters present at the notify instant (futex
    // semantics). The reenable charges yield the fiber, so draining
    // "until empty" would also wake threads of the *next* epoch that
    // block while we drain — and with back-to-back waits (e.g. barrier
    // episodes) those re-block faster than the drain empties, leaving
    // the notifier reenabling forever.
    // Pop before charging (as in notify_one): each reenable charge may
    // yield this fiber — a preempted notifier can interleave with the
    // next holder's broadcast on the same site — and the concurrent
    // drain must never double-wake a waiter or read a stale front().
    std::size_t present = waiters_.size();
    while (present-- > 0 && !waiters_.empty()) {
        SimThread* t = waiters_.front();
        waiters_.pop_front();
        m->charge(m->costs().thread_reenable);
        std::uint64_t when = m->cycles(current_cpu());
        if (t->proc() != current_cpu())
            when += m->costs().msg_latency;
        m->make_ready(t, when);
    }
}

}  // namespace reactive::sim
