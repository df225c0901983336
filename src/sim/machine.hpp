/**
 * @file
 * The simulated multiprocessor: the experimental platform substitute for
 * the MIT Alewife machine and its NWO simulator (thesis Chapter 2).
 *
 * A `Machine` owns P simulated processors, each with its own cycle
 * clock, a small set of hardware contexts (Sparcle-style block
 * multithreading), a ready queue of unloaded threads, and an incoming
 * message queue. Simulated code runs in fibers; every simulated-memory
 * access, message, delay, or pause charges cycles to the running
 * processor's clock, and the scheduler always advances the processor
 * with the smallest next event time, so the interleaving is a faithful
 * (and deterministic) discrete-event execution.
 *
 * Cost parameters live in `CostModel`; the defaults encode the numbers
 * the thesis reports for Alewife: ~50-cycle remote misses, sequential
 * invalidations (the reason test-and-test-and-set stops scaling,
 * Section 3.1.3), LimitLESS directory overflow beyond 5 hardware
 * pointers, ~500-cycle blocking split per Table 4.1, 4 hardware contexts
 * with a 14-cycle context switch (Section 4.1).
 *
 * Scheduling. Each processor holds the key `(clock, proc)`, packed into
 * one u64 as `(clock << 8) | proc` (kMaxProcs = 256 fits the low 8
 * bits), in an indexed min-heap. The invariant every simulated number
 * rests on: simulated code runs only while its processor holds the
 * smallest key, or has charged up to, but not past, the next other
 * event time (`run_until_`). A charge that stays within `run_until_`
 * keeps running in place. One that crosses it calls `reschedule()`:
 * the running fiber requeues its own processor, picks the next one
 * through the same pick-and-prepare routine the scheduler loop uses,
 * and switches straight to that processor's fiber (`Fiber::switch_to`).
 * Control goes back to the scheduler's stack only for work that must
 * run there:
 *  - delivering due messages (handlers run with no current fiber, so
 *    their charges never yield);
 *  - loading threads from a ready queue into hardware contexts;
 *  - an armed preemption quantum;
 *  - a blocked or finished thread;
 *  - the deadlock throw.
 * Every step therefore runs the same simulated code at the same cycle
 * as a scheduler that bounces through its own stack at every event;
 * only the host cost of a step changes.
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "platform/prng.hpp"
#include "sim/fiber.hpp"

namespace reactive::sim {

/// Upper bound on simulated processors (directory bitmask width).
inline constexpr std::uint32_t kMaxProcs = 256;

/**
 * Machine shape: processors grouped into sockets (NUMA domains).
 * Processor p lives on socket p / cores_per_socket — contiguous ranges,
 * the layout every real socketed machine exposes to a pinned thread
 * pool. The default (one socket) is the flat machine every thesis
 * experiment ran on: the two-level cost terms then never fire and the
 * cost model is bit-identical to the pre-topology simulator.
 */
struct Topology {
    std::uint32_t sockets = 1;
    /// Processors per socket; 0 derives ceil(nprocs / sockets).
    std::uint32_t cores_per_socket = 0;
};

/**
 * Every latency the simulation charges, in simulated cycles.
 * Presets reproduce the configurations the thesis evaluates.
 */
struct CostModel {
    // -- processor ---------------------------------------------------
    std::uint32_t pause_cycles = 4;       ///< one spin-poll iteration

    // -- cache / directory (LimitLESS-style) -------------------------
    std::uint32_t cache_hit = 2;          ///< local cached access
    std::uint32_t remote_miss = 40;       ///< fill from home/remote node
    std::uint32_t writeback_extra = 10;   ///< downgrading a dirty owner
    std::uint32_t upgrade_hit = 12;       ///< write hit on a shared line
    std::uint32_t invalidate_per_sharer = 7;  ///< sequential invalidations
    std::uint32_t atomic_extra = 6;       ///< RMW beyond a write
    std::uint32_t hw_dir_pointers = 5;    ///< LimitLESS hardware pointers
    std::uint32_t dir_overflow_trap = 60; ///< software directory extension
    bool full_map_directory = false;      ///< DirNNB: never overflows

    // -- two-level (NUMA) transfer terms ------------------------------
    // Charged only on machines built with Topology{sockets >= 2}; on
    // the default flat machine they never fire, so every flat number is
    // bit-identical to the pre-topology cost model. The extra applies
    // when the nearest valid copy of the line (dirty owner, else any
    // cached sharer) lives on a different socket than the requester —
    // the handoff-locality distinction RMR-style analyses draw between
    // intra- and cross-domain remote references. Plain memory fills
    // (no cached copy anywhere) stay uniform: interleaved pages.
    std::uint32_t cross_socket_extra = 50;     ///< cross-socket data fetch
    std::uint32_t invalidate_cross_extra = 5;  ///< per cross-socket sharer

    // -- interconnect messages ---------------------------------------
    std::uint32_t msg_send_overhead = 16; ///< compose + launch
    std::uint32_t msg_latency = 24;       ///< one-way network latency
    std::uint32_t msg_handler_overhead = 30;  ///< dispatch into handler

    // -- threads (Table 4.1 breakdown) --------------------------------
    std::uint32_t thread_unload = 300;    ///< save state + enqueue
    std::uint32_t thread_reenable = 100;  ///< move to ready queue (waker)
    std::uint32_t thread_reload = 65;     ///< restore registers + state
    std::uint32_t context_switch = 14;    ///< between resident contexts
    std::uint32_t hardware_contexts = 1;  ///< Sparcle N (4 when multithreaded)
    std::uint32_t spawn_cost = 50;        ///< creating a thread in-sim
    std::uint32_t wait_queue_op = 13;     ///< lock queue of blocked threads

    // -- preemptive scheduling (oversubscription) ---------------------
    // With more threads than hardware contexts a spinning resident
    // thread would otherwise never yield the processor to the unloaded
    // runnable threads behind it — exactly the pathology reactive
    // waiting exists to avoid, but the simulator must be able to
    // *run* always-spin under oversubscription to measure it. A
    // nonzero quantum deschedules the running thread (charging
    // thread_unload, then thread_reload when its turn returns) once it
    // has run preempt_quantum cycles while unloaded runnable threads
    // wait. 0 — the default — disables preemption entirely: no
    // deadline is computed and the scheduler is bit-identical to the
    // pre-quantum machine (the park-free identity argument, like the
    // flat-topology terms above).
    std::uint32_t preempt_quantum = 0;    ///< cycles; 0 = cooperative

    /// Simulated 33 MHz Alewife, LimitLESS_5 directory (the default).
    static CostModel alewife() { return CostModel{}; }

    /// Full-map directory (the DirNNB curve of Figure 3.2).
    static CostModel dirnnb()
    {
        CostModel c;
        c.full_map_directory = true;
        return c;
    }

    /// 16-node 20 MHz prototype: the asynchronous network appears
    /// faster relative to the clock (thesis Section 3.5.2).
    static CostModel prototype16()
    {
        CostModel c;
        c.remote_miss = 28;
        c.invalidate_per_sharer = 5;
        c.msg_latency = 16;
        return c;
    }

    /// Alewife with Sparcle block multithreading enabled (Chapter 4).
    static CostModel multithreaded(std::uint32_t contexts = 4)
    {
        CostModel c;
        c.hardware_contexts = contexts;
        return c;
    }

    /// Cost of blocking, B: what the thesis' waiting analysis calls the
    /// fixed cost of the signaling mechanism (~500 cycles on Alewife).
    std::uint32_t blocking_cost() const
    {
        return thread_unload + thread_reenable + thread_reload;
    }
};

/// Aggregate event counters, exposed for traffic-oriented assertions.
struct MachineStats {
    std::uint64_t mem_ops = 0;
    std::uint64_t remote_misses = 0;
    std::uint64_t cross_socket_transfers = 0;   ///< data fetched across sockets
    std::uint64_t cross_socket_invalidations = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t dir_overflows = 0;
    std::uint64_t messages = 0;
    std::uint64_t handlers = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t blocks = 0;
    std::uint64_t wakes = 0;
    std::uint64_t threads_spawned = 0;
    std::uint64_t preemptions = 0;  ///< quantum-expiry deschedules
};

class Machine;

namespace detail {
/// The machine whose run() is active on this host thread.
inline thread_local Machine* t_machine = nullptr;
}  // namespace detail

// The runtime services below sit on the hot path of every simulated
// memory op; they are defined inline after Machine so a charge that
// stays in place costs no out-of-line call.

/// Machine running the current fiber/handler, or nullptr outside a sim.
inline Machine* current_machine()
{
    return detail::t_machine;
}

/// Processor executing the current fiber or message handler.
inline std::uint32_t current_cpu();

/// Charges one poll interval to the running processor.
inline void pause();

/// Charges @p cycles of local computation to the running processor.
inline void delay(std::uint64_t cycles);

/// The running processor's cycle clock.
inline std::uint64_t now();

/// Per-thread deterministic uniform draw in [0, bound).
inline std::uint32_t random_below(std::uint32_t bound);

/**
 * Derives a well-distributed child seed from an experiment seed and a
 * stream index (splitmix64 over both words). The replay harnesses
 * (src/audit/oracle.hpp) use this so a re-run of episode e under a
 * different protocol sees exactly the episode-e randomness of the
 * original stream — the determinism contract behind the oracle.
 */
constexpr std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream)
{
    std::uint64_t state = base + 0x9e3779b97f4a7c15ull * (stream + 1);
    std::uint64_t s = splitmix64(state);
    // One more round decorrelates adjacent streams of adjacent bases.
    return splitmix64(state) ^ (s << 1);
}

class SimThread;
class Machine;

/**
 * A simulated thread. Created via Machine::spawn; lifetime owned by the
 * Machine. Exposed only as an opaque handle to the wait-queue layer.
 */
class SimThread {
  public:
    enum class State { kReady, kRunning, kBlocked, kDone };

    std::uint32_t id() const { return id_; }
    std::uint32_t proc() const { return proc_; }
    State state() const { return state_; }

  private:
    friend class Machine;
    friend class SimWaitQueue;
    friend std::uint32_t random_below(std::uint32_t bound);

    SimThread(std::uint32_t id, std::uint32_t proc, std::function<void()> fn,
              std::size_t stack_bytes, std::uint64_t seed)
        : id_(id), proc_(proc), fiber_(std::move(fn), stack_bytes), rng_(seed)
    {
    }

    std::uint32_t id_;
    std::uint32_t proc_;
    Fiber fiber_;
    XorShift64Star rng_;
    State state_ = State::kReady;
    bool loaded_ = false;
    std::uint64_t ready_at_ = 0;  ///< earliest cycle it may be (re)loaded
};

/**
 * Condition queue for simulated threads: the signaling substrate of the
 * waiting algorithms (Chapter 4). Mirrors the native futex eventcount
 * interface; costs follow Table 4.1 (unload on block, reenable charged
 * to the waker, reload when rescheduled).
 */
class SimWaitQueue {
  public:
    std::uint32_t prepare_wait();
    void cancel_wait();
    void commit_wait(std::uint32_t epoch);
    void notify_one();
    void notify_all();

    /// Count of *advertised* waiters — incremented by prepare_wait,
    /// retracted by cancel_wait or when a committed wait completes.
    /// This mirrors the native eventcounts' waiters() exactly (their
    /// counter also moves at prepare, not at the futex sleep), so a
    /// releaser consulting the count sees waiters that are still
    /// between prepare_wait and commit_wait — the window in which
    /// skipping a notify (and its epoch bump) would strand them on the
    /// stale snapshot. Free host read; also the holder's queue-depth
    /// signal. In the sequential simulation the read is exact, not
    /// advisory.
    std::uint32_t waiters() const { return advertised_; }

  private:
    std::uint32_t epoch_ = 0;
    std::uint32_t advertised_ = 0;
    std::deque<SimThread*> waiters_;
};

/**
 * The simulated multiprocessor.
 *
 * Usage:
 * @code
 *   sim::Machine m(64);
 *   TtsLock<sim::SimPlatform> lock;           // shared simulated state
 *   for (uint32_t p = 0; p < 64; ++p)
 *       m.spawn(p, [&] { ... });              // one thread per processor
 *   m.run();
 *   uint64_t t = m.elapsed();                 // simulated cycles
 * @endcode
 */
class Machine {
  public:
    explicit Machine(std::uint32_t nprocs, CostModel costs = CostModel::alewife(),
                     std::uint64_t seed = 1);
    /// Socketed machine: same cost model plus the two-level transfer
    /// terms charged across socket boundaries.
    Machine(std::uint32_t nprocs, Topology topo,
            CostModel costs = CostModel::alewife(), std::uint64_t seed = 1);
    ~Machine();

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    std::uint32_t procs() const { return static_cast<std::uint32_t>(procs_.size()); }
    const CostModel& costs() const { return costs_; }
    const MachineStats& stats() const { return stats_; }

    // ---- topology ---------------------------------------------------

    std::uint32_t sockets() const { return sockets_; }
    std::uint32_t cores_per_socket() const { return cores_per_socket_; }

    /// Socket of processor @p cpu (contiguous ranges, clamped so a
    /// ragged last socket absorbs any remainder).
    std::uint32_t socket_of(std::uint32_t cpu) const
    {
        const std::uint32_t s = cpu / cores_per_socket_;
        return s < sockets_ ? s : sockets_ - 1;
    }

    /// Unique id of this machine instance; used by the memory model to
    /// invalidate cache/occupancy state carried by objects that outlive
    /// a previous Machine.
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Creates a simulated thread bound to processor @p proc.
     * May be called before run() (thread ready at cycle 0) or from
     * inside the simulation (charges spawn cost to the caller).
     */
    SimThread* spawn(std::uint32_t proc, std::function<void()> fn,
                     std::size_t stack_bytes = 128 * 1024);

    /**
     * Runs the simulation until every thread finishes.
     * @throws std::runtime_error on deadlock (live threads, no events).
     */
    void run();

    /// Simulated end-to-end time: max processor clock reached.
    std::uint64_t elapsed() const;

    /// Cycle clock of processor @p proc.
    std::uint64_t cycles(std::uint32_t proc) const { return procs_[proc].clock; }

    // ---- runtime services (called from simulated code) --------------

    /// Adds @p cycles to the running processor; may switch fibers.
    inline void charge(std::uint64_t cycles);

    /// Sends an atomic-handler message to processor @p dst.
    void send(std::uint32_t dst, std::function<void()> handler);

    /// Like send(), with @p extra_delay additional cycles of latency
    /// (used to model protocol timers such as combining windows).
    void send_delayed(std::uint32_t dst, std::uint64_t extra_delay,
                      std::function<void()> handler);

    /// Rotates to the next resident hardware context (switch-spinning).
    /// With a single context this degenerates to pause().
    void context_switch();

    /// Blocks the current thread (Table 4.1 unload cost already charged
    /// by the caller). Returns when the thread is rescheduled.
    void block_current();

    /// Makes @p t runnable on its processor no earlier than @p when.
    void make_ready(SimThread* t, std::uint64_t when);

    /// Currently running simulated thread (nullptr inside handlers).
    SimThread* running_thread() const { return running_; }

    MachineStats& mutable_stats() { return stats_; }

  private:
    struct Message {
        std::uint64_t arrival;
        std::uint64_t seq;  ///< FIFO tiebreak
        std::function<void()> handler;
        bool operator>(const Message& o) const
        {
            return arrival != o.arrival ? arrival > o.arrival : seq > o.seq;
        }
    };

    struct Proc {
        std::uint64_t clock = 0;
        std::vector<SimThread*> contexts;  ///< resident (runnable) threads
        std::size_t cur = 0;
        std::deque<SimThread*> ready;      ///< unloaded runnable threads
        std::priority_queue<Message, std::vector<Message>, std::greater<>> msgs;
        /// Preemption bookkeeping (preempt_quantum != 0 only): the
        /// resident thread whose quantum is running and its absolute
        /// expiry. Persisted across scheduler bounces — a step() that
        /// resumes the same thread must not restart the clock, or a
        /// spinner bounced by other-processor events more often than
        /// the quantum is never preempted at all.
        SimThread* quantum_owner = nullptr;
        std::uint64_t quantum_deadline = 0;
    };

    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

    /// Earliest cycle at which processor @p p can do useful work.
    std::uint64_t next_event(const Proc& p) const;

    /// Runs one scheduling step, on the scheduler stack, on the
    /// processor at the top of the heap.
    void step();

    /**
     * The pick-and-prepare routine shared by step() and reschedule():
     * makes the processor at the top of the heap current, sets
     * run_until_ and the preemption deadline, and marks the thread it
     * should run as running. On the scheduler stack it first delivers
     * due messages and loads ready threads; from a fiber
     * (@p on_fiber) it returns nullptr instead, touching nothing, when
     * the pick needs that work or would arm a quantum. Also nullptr
     * when the processor has nothing runnable yet.
     */
    SimThread* dispatch(bool on_fiber);

    /// Gives up the processor from inside a fiber: the charge crossed
    /// run_until_, or the thread switched contexts. Hands off directly
    /// to the next fiber when it can, else returns to the scheduler.
    void reschedule();

    void deliver_messages(Proc& p);
    void finish_thread(Proc& p, SimThread* t);

    // ---- indexed min-heap of processors, packed (clock, proc) keys ---
    static constexpr std::uint32_t kProcBits = 8;
    static_assert(kMaxProcs <= (1u << kProcBits));
    /// Clock of a processor with no event: the largest packable one.
    static constexpr std::uint64_t kIdleClock = kNever >> kProcBits;

    static std::uint64_t heap_key(std::uint64_t when, std::uint32_t pi)
    {
        assert(when == kNever || when < kIdleClock);
        return (std::min(when, kIdleClock) << kProcBits) | pi;
    }
    static std::uint32_t key_proc(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key & ((1u << kProcBits) - 1));
    }

    void heap_build();
    void heap_sift(std::size_t i);
    void heap_touch(std::uint32_t pi);
    std::uint64_t heap_second_min() const;

    CostModel costs_;
    std::uint32_t sockets_ = 1;
    std::uint32_t cores_per_socket_ = kMaxProcs;
    std::vector<Proc> procs_;
    std::vector<std::unique_ptr<SimThread>> threads_;
    MachineStats stats_;
    XorShift64Star machine_rng_;
    std::uint64_t seed_;
    std::uint64_t msg_seq_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint64_t live_threads_ = 0;
    std::uint64_t run_until_ = 0;   ///< current proc may run up to here
    std::uint64_t preempt_at_ = kNever;  ///< running thread's armed quantum
    std::uint32_t cur_proc_ = 0;
    SimThread* running_ = nullptr;
    bool in_run_ = false;

    std::vector<std::uint64_t> heap_;  ///< heap_key(next_event, proc), min-heap
    std::vector<std::uint32_t> pos_;   ///< proc -> heap slot

    friend std::uint32_t current_cpu();
    friend std::uint32_t random_below(std::uint32_t bound);
    friend class SimWaitQueue;
};

// ---- hot-path runtime services ---------------------------------------

inline void Machine::charge(std::uint64_t cycles)
{
    Proc& p = procs_[cur_proc_];
    p.clock += cycles;
    if (p.clock > run_until_ && Fiber::current() != nullptr)
        reschedule();
}

inline std::uint32_t current_cpu()
{
    assert(detail::t_machine != nullptr);
    return detail::t_machine->cur_proc_;
}

inline std::uint32_t random_below(std::uint32_t bound)
{
    Machine* m = detail::t_machine;
    assert(m != nullptr);
    if (SimThread* t = m->running_thread())
        return t->rng_.below(bound);
    return m->machine_rng_.below(bound);
}

inline void pause()
{
    Machine* m = detail::t_machine;
    assert(m != nullptr);
    // Seeded jitter: real machines never spin in perfect lockstep, but a
    // discrete-cost simulation does, and two processors polling the same
    // word with identical periods can starve each other forever.
    m->charge(m->costs().pause_cycles + random_below(3));
}

inline void delay(std::uint64_t cycles)
{
    Machine* m = detail::t_machine;
    assert(m != nullptr);
    m->charge(cycles);
}

inline std::uint64_t now()
{
    Machine* m = detail::t_machine;
    assert(m != nullptr);
    return m->cycles(current_cpu());
}

}  // namespace reactive::sim
