/**
 * @file
 * sim_suite: five fixed-seed kernels on the simulated multiprocessor,
 * each built from sim::Machine and the public primitives on
 * SimPlatform. Simulated results are exact, so every pass must repeat
 * the first one bit for bit; the host time the passes take is the
 * simulator's own speed.
 *
 *  - lock:    time-varying contention on one reactive lock (1-processor
 *             low phases, 16-processor high phases; thesis Figs 3.20-3.23)
 *  - rw:      16-processor rwlock phases, read-mostly vs write-heavy
 *  - barrier: 16-processor barrier phases, bunched vs straggler
 *  - park:    a ParkWaiting reactive lock at 4x oversubscription with a
 *             preemption quantum
 *  - fetchop: a TSP-style work queue on two ReactiveFetchOp tickets
 *
 * The kernels' seeds are fixed so their results are a behavioural
 * gate; the run's --seed only shuffles the order in which the kernels
 * of a pass run, which moves host timings and nothing simulated.
 */
#include <algorithm>
#include <memory>
#include <numeric>

#include "barrier/reactive_barrier.hpp"
#include "core/reactive_fetch_op.hpp"
#include "core/reactive_mutex.hpp"
#include "platform/prng.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "sim/machine.hpp"
#include "sim/sim_platform.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using reactive::sim::Machine;
using reactive::sim::MachineStats;
using reactive::sim::SimPlatform;
namespace sim = reactive::sim;

/// Span kinds of the traced sim section.
enum Kind : std::uint16_t { kKernel, kConstruct, kSpawn, kRun, kKinds };
const std::vector<std::string> kKindNames{"kernel", "construct", "spawn",
                                          "run"};

/// Times one call as a span of the current kernel when tracing.
struct Tracer {
    SpanLog* log = nullptr;
    std::uint32_t kernel = 0;

    template <typename F>
    decltype(auto) span(Kind k, F&& f)
    {
        if (!log)
            return f();
        const std::uint64_t t0 = ticks();
        struct Close {
            Tracer& t;
            Kind k;
            std::uint64_t t0;
            ~Close() { t.log->record(k, t.kernel, t0, ticks()); }
        } close{*this, k, t0};
        return f();
    }
};

/// What one kernel run reports; everything but the host times must
/// repeat exactly.
struct Outcome {
    std::uint64_t cycles = 0;  ///< simulated elapsed, summed over machines
    std::uint64_t ops = 0;     ///< checked operations (the metric's unit)
    std::uint64_t failed = 0;
    std::uint64_t protocol_changes = 0;
    std::uint64_t wait_mode_changes = 0;
    MachineStats stats{};

    bool same(const Outcome& o) const
    {
        const auto key = [](const Outcome& x) {
            const MachineStats& s = x.stats;
            return std::vector<std::uint64_t>{
                x.cycles, x.ops, x.failed, x.protocol_changes,
                x.wait_mode_changes, s.mem_ops, s.remote_misses,
                s.invalidations, s.context_switches, s.blocks, s.wakes,
                s.preemptions, s.threads_spawned};
        };
        return key(*this) == key(o);
    }
};

void add_stats(MachineStats& into, const MachineStats& s)
{
    into.mem_ops += s.mem_ops;
    into.remote_misses += s.remote_misses;
    into.invalidations += s.invalidations;
    into.context_switches += s.context_switches;
    into.blocks += s.blocks;
    into.wakes += s.wakes;
    into.preemptions += s.preemptions;
    into.threads_spawned += s.threads_spawned;
}

/**
 * A kernel is set up (machines constructed, threads spawned) and then
 * run; both steps are timed separately so set-up time is its own
 * number.
 */
class Kernel {
  public:
    virtual ~Kernel() = default;
    virtual void prepare(Tracer& tr) = 0;
    virtual Outcome run(Tracer& tr) = 0;

  protected:
    /// Runs every prepared machine in order and sums cycles and stats.
    Outcome run_machines(Tracer& tr)
    {
        Outcome o;
        for (auto& m : machines_) {
            tr.span(kRun, [&] { m->run(); });
            o.cycles += m->elapsed();
            add_stats(o.stats, m->stats());
        }
        return o;
    }
    Machine& machine(std::uint32_t procs, Tracer& tr,
                     sim::CostModel costs = sim::CostModel::alewife(),
                     std::uint64_t seed = 1)
    {
        machines_.push_back(tr.span(kConstruct, [&] {
            return std::make_unique<Machine>(procs, costs, seed);
        }));
        return *machines_.back();
    }
    template <typename F>
    void spawn(Machine& m, std::uint32_t proc, Tracer& tr, F&& fn)
    {
        tr.span(kSpawn, [&] { m.spawn(proc, std::forward<F>(fn)); });
    }

    std::vector<std::unique_ptr<Machine>> machines_;
};

// ---- lock: time-varying contention -----------------------------------

class LockKernel : public Kernel {
    using Lock = reactive::ReactiveNodeLock<SimPlatform>;
    static constexpr std::uint32_t kPeriods = 2;
    static constexpr std::uint32_t kLow = 192;        ///< 1-processor phase
    static constexpr std::uint32_t kHighPerProc = 12; ///< 16-processor phase

  public:
    void prepare(Tracer& tr) override
    {
        for (std::uint32_t p = 0; p < kPeriods; ++p) {
            Machine& lo = machine(1, tr, sim::CostModel::alewife(), 11 + 2 * p);
            spawn(lo, 0, tr, [this] { loop(kLow, 10, 20); });
            Machine& hi = machine(16, tr, sim::CostModel::alewife(), 12 + 2 * p);
            for (std::uint32_t c = 0; c < 16; ++c)
                spawn(hi, c, tr, [this] { loop(kHighPerProc, 100, 250); });
        }
    }
    Outcome run(Tracer& tr) override
    {
        Outcome o = run_machines(tr);
        o.ops = kPeriods * (kLow + 16 * kHighPerProc);
        o.failed = counter_ != o.ops ? 1 : 0;
        o.protocol_changes = lock_.inner().protocol_changes();
        return o;
    }

  private:
    void loop(std::uint32_t iters, std::uint32_t cs, std::uint32_t think)
    {
        for (std::uint32_t i = 0; i < iters; ++i) {
            Lock::Node n;
            lock_.lock(n);
            // Read-delay-write: a second holder would lose an update.
            const std::uint64_t v = counter_;
            sim::delay(cs);
            counter_ = v + 1;
            lock_.unlock(n);
            sim::delay(think);
        }
    }

    Lock lock_;
    std::uint64_t counter_ = 0;
};

// ---- rw: 16-processor rwlock phases ----------------------------------

class RwKernel : public Kernel {
    using Rw = reactive::ReactiveRwLock<SimPlatform>;
    static constexpr std::uint32_t kProcs = 16;
    static constexpr std::uint32_t kPhases = 2;
    static constexpr std::uint32_t kOpsPerPhase = 7;

  public:
    void prepare(Tracer& tr) override
    {
        Machine& m = machine(kProcs, tr, sim::CostModel::alewife(), 21);
        for (std::uint32_t p = 0; p < kProcs; ++p)
            spawn(m, p, tr, [this] { loop(); });
    }
    Outcome run(Tracer& tr) override
    {
        Outcome o = run_machines(tr);
        o.ops = kProcs * kPhases * kOpsPerPhase;
        o.failed = torn_ + (writes_ != issued_ ? 1 : 0);
        o.protocol_changes = lock_.protocol_changes();
        return o;
    }

  private:
    void loop()
    {
        for (std::uint32_t ph = 0; ph < kPhases; ++ph) {
            const std::uint32_t permille = ph % 2 == 0 ? 950 : 100;
            for (std::uint32_t i = 0; i < kOpsPerPhase; ++i) {
                Rw::Node n;
                if (sim::random_below(1000) < permille) {
                    lock_.lock_read(n);
                    const std::uint64_t a = a_;
                    sim::delay(60);
                    torn_ += a != b_ ? 1 : 0;  // a writer overlapped
                    lock_.unlock_read(n);
                } else {
                    ++issued_;
                    lock_.lock_write(n);
                    // Read-delay-write: a second writer would lose an
                    // update, a reader would see a_ != b_.
                    const std::uint64_t v = writes_ + 1;
                    a_ = v;
                    sim::delay(140);
                    b_ = v;
                    writes_ = v;
                    lock_.unlock_write(n);
                }
                sim::delay(sim::random_below(400));
            }
            // Arrival counting, so regime changes hit everyone at once.
            const std::uint32_t target = (ph + 1) * kProcs;
            arrived_.fetch_add(1);
            while (arrived_.load() < target)
                sim::delay(50 + sim::random_below(50));
        }
    }

    Rw lock_;
    sim::Atomic<std::uint32_t> arrived_{0};
    std::uint64_t a_ = 0, b_ = 0, writes_ = 0, issued_ = 0, torn_ = 0;
};

// ---- barrier: 16-processor barrier phases ----------------------------

class BarrierKernel : public Kernel {
    using Bar = reactive::ReactiveBarrier<SimPlatform>;
    static constexpr std::uint32_t kProcs = 16;
    static constexpr std::uint32_t kPhases = 4;
    static constexpr std::uint32_t kEpisodesPerPhase = 4;
    static constexpr std::uint32_t kStraggle = 3000;

  public:
    BarrierKernel() : bar_(kProcs), nodes_(kProcs), done_(kProcs, 0) {}

    void prepare(Tracer& tr) override
    {
        Machine& m = machine(kProcs, tr, sim::CostModel::alewife(), 31);
        for (std::uint32_t p = 0; p < kProcs; ++p)
            spawn(m, p, tr, [this, p] { loop(p); });
    }
    Outcome run(Tracer& tr) override
    {
        Outcome o = run_machines(tr);
        o.ops = kPhases * kEpisodesPerPhase;
        o.failed = misordered_;
        o.protocol_changes = bar_.protocol_changes();
        return o;
    }

  private:
    void loop(std::uint32_t p)
    {
        std::uint64_t e = 0;
        for (std::uint32_t ph = 0; ph < kPhases; ++ph) {
            for (std::uint32_t i = 0; i < kEpisodesPerPhase; ++i) {
                sim::delay(sim::random_below(201));
                if (ph % 2 == 1 && p == 0)
                    sim::delay(kStraggle);
                done_[p] = ++e;
                bar_.arrive(nodes_[p]);
                // Leaving episode e: everyone has arrived at it, and
                // nobody can be past the next one.
                for (std::uint64_t d : done_)
                    misordered_ += d < e || d > e + 1 ? 1 : 0;
            }
        }
    }

    Bar bar_;
    std::vector<Bar::Node> nodes_;
    std::vector<std::uint64_t> done_;
    std::uint64_t misordered_ = 0;
};

// ---- park: oversubscribed ParkWaiting lock ---------------------------

class ParkKernel : public Kernel {
    using Lock = reactive::ReactiveNodeLock<SimPlatform, reactive::AlwaysSwitchPolicy,
                                            reactive::ReactiveQueue<SimPlatform>,
                                            reactive::ParkWaiting>;
    static constexpr std::uint32_t kProcs = 4;
    static constexpr std::uint32_t kFactor = 4;
    static constexpr std::uint32_t kIters = 85;

  public:
    void prepare(Tracer& tr) override
    {
        sim::CostModel costs = sim::CostModel::alewife();
        costs.preempt_quantum = 10000;
        Machine& m = machine(kProcs, tr, costs, 41);
        for (std::uint32_t t = 0; t < kProcs * kFactor; ++t)
            spawn(m, t % kProcs, tr, [this] { loop(); });
    }
    Outcome run(Tracer& tr) override
    {
        Outcome o = run_machines(tr);
        o.ops = kProcs * kFactor * kIters;
        o.failed = counter_ != o.ops ? 1 : 0;
        o.protocol_changes = lock_.inner().protocol_changes();
        o.wait_mode_changes = lock_.inner().wait_mode_changes();
        return o;
    }

  private:
    void loop()
    {
        for (std::uint32_t i = 0; i < kIters; ++i) {
            Lock::Node n;
            lock_.lock(n);
            const std::uint64_t v = counter_;
            sim::delay(200);
            counter_ = v + 1;
            lock_.unlock(n);
            sim::delay(sim::random_below(400));
        }
    }

    Lock lock_;
    std::uint64_t counter_ = 0;
};

// ---- fetchop: TSP-style work queue -----------------------------------

class FetchOpKernel : public Kernel {
    using Ticket = reactive::ReactiveFetchOp<SimPlatform>;
    static constexpr std::uint32_t kProcs = 16;
    static constexpr std::uint32_t kTasks = 300;
    static constexpr std::uint32_t kGrain = 700;

    struct Slot {
        sim::Atomic<std::uint32_t> full{0};
        std::uint32_t runs = 0;
    };

  public:
    FetchOpKernel() : head_(kProcs), tail_(kProcs), slots_(kTasks + kProcs + 1)
    {
        for (std::uint32_t p = 0; p < kProcs; ++p)
            slots_[p].full.store(1);  // one seed task per processor
    }

    void prepare(Tracer& tr) override
    {
        Machine& m = machine(kProcs, tr, sim::CostModel::alewife(), 51);
        for (std::uint32_t p = 0; p < kProcs; ++p)
            spawn(m, p, tr, [this] { loop(); });
    }
    Outcome run(Tracer& tr) override
    {
        Outcome o = run_machines(tr);
        o.ops = fetch_adds_;
        // Every task ran exactly once.
        for (std::uint32_t i = 0; i < kTasks; ++i)
            o.failed += slots_[i].runs != 1 ? 1 : 0;
        o.protocol_changes = head_.protocol_changes() + tail_.protocol_changes();
        return o;
    }

  private:
    void loop()
    {
        Ticket::Node hn, tn;
        for (;;) {
            if (done_.load() >= kTasks)
                return;
            ++fetch_adds_;
            const auto ticket = static_cast<std::uint32_t>(head_.fetch_add(hn, 1));
            if (ticket >= kTasks)
                return;  // queue drained
            Slot& s = slots_[ticket];
            while (s.full.load() == 0)
                sim::pause();  // producer still writing
            ++s.runs;
            sim::delay(kGrain / 2 + sim::random_below(kGrain));
            for (int c = 0; c < 2; ++c) {  // expand two subtours
                const auto id = static_cast<std::uint32_t>(spawned_.fetch_add(1)) + kProcs;
                if (id >= kTasks)
                    break;
                ++fetch_adds_;
                const auto enq =
                    static_cast<std::uint32_t>(tail_.fetch_add(tn, 1)) + kProcs;
                slots_[enq].full.store(1);
            }
            done_.fetch_add(1);
        }
    }

    Ticket head_, tail_;
    std::vector<Slot> slots_;
    sim::Atomic<std::uint32_t> spawned_{0};
    sim::Atomic<std::uint32_t> done_{0};
    std::uint64_t fetch_adds_ = 0;
};

// ---- the suite -------------------------------------------------------

constexpr int kKernels = 5;
const char* const kNames[kKernels] = {"lock", "rw", "barrier", "park", "fetchop"};
const char* const kCycleMetric[kKernels] = {
    "sim_lock_cycles_per_op", "sim_rw_cycles_per_op",
    "sim_barrier_cycles_per_episode", "sim_park_cycles_per_op",
    "sim_fetchop_cycles_per_op"};

std::unique_ptr<Kernel> make_kernel(int k)
{
    switch (k) {
    case 0: return std::make_unique<LockKernel>();
    case 1: return std::make_unique<RwKernel>();
    case 2: return std::make_unique<BarrierKernel>();
    case 3: return std::make_unique<ParkKernel>();
    default: return std::make_unique<FetchOpKernel>();
    }
}

/// One timed kernel run: construction + spawn (set-up) and run.
struct Timed {
    Outcome out;
    double setup_s = 0;
    double run_s = 0;
};

Timed run_kernel(int k, Tracer& tr)
{
    Timed t;
    const std::uint64_t t0 = ticks();
    std::unique_ptr<Kernel> kernel = make_kernel(k);
    kernel->prepare(tr);
    const std::uint64_t t1 = ticks();
    t.out = kernel->run(tr);
    kernel.reset();
    const std::uint64_t t2 = ticks();
    t.setup_s = static_cast<double>(t1 - t0) * ns_per_tick() * 1e-9;
    t.run_s = static_cast<double>(t2 - t1) * ns_per_tick() * 1e-9;
    if (tr.log)
        tr.log->record(kKernel, tr.kernel, t0, t2);
    return t;
}

/// Repeated passes for a time budget; every pass must reproduce the
/// reference outcomes (the first run of each kernel) exactly.
struct Loop {
    Outcome ref[kKernels];
    bool have_ref[kKernels] = {};
    std::vector<double> host_s[kKernels];
    Histogram latency;  ///< host time per kernel run, ticks
    std::vector<double> pass_setup_s;  ///< construction + spawn, per pass
    double total_s = 0;
    std::uint64_t mem_ops = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t failed = 0;
    std::uint64_t attempted = 0;

    void pass(reactive::XorShift64Star& rng, SpanLog* log, std::uint32_t& seq)
    {
        int order[kKernels];
        std::iota(order, order + kKernels, 0);
        for (int i = kKernels - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(static_cast<std::uint32_t>(i + 1))]);
        double setup = 0;
        for (int k : order) {
            // An untimed build first warms the allocator, the stack
            // mappings and the caches the previous kernel's run evicted,
            // so the timed set-up measures construction and spawn, not
            // what the last run left behind.
            Tracer none;
            make_kernel(k)->prepare(none);
            Tracer tr{log, seq++};
            const Timed t = run_kernel(k, tr);
            if (!have_ref[k]) {
                ref[k] = t.out;
                have_ref[k] = true;
            } else if (!t.out.same(ref[k])) {
                ++mismatches;
            }
            failed += t.out.failed;
            attempted += t.out.ops;
            record(k, t);
            setup += t.setup_s;
        }
        pass_setup_s.push_back(setup);
    }

    void record(int k, const Timed& t)
    {
        const double s = t.setup_s + t.run_s;
        host_s[k].push_back(s);
        latency.add(static_cast<std::uint64_t>(s * 1e9 / ns_per_tick()));
        total_s += s;
        mem_ops += t.out.stats.mem_ops;
    }

    std::uint64_t runs() const { return latency.count(); }
};

/// A loop whose references come from one warm-up pass; the warm-up's
/// timings are discarded.
Loop warmed(reactive::XorShift64Star& rng, std::uint32_t& seq)
{
    Loop l;
    l.pass(rng, nullptr, seq);
    for (auto& h : l.host_s)
        h.clear();
    l.latency = Histogram{};
    l.pass_setup_s.clear();
    l.total_s = 0;
    l.mem_ops = 0;
    return l;
}

void add_cycles(const Outcome (&ref)[kKernels], Result& r)
{
    for (int k = 0; k < kKernels; ++k)
        r.add(kCycleMetric[k],
              static_cast<double>(ref[k].cycles) / static_cast<double>(ref[k].ops),
              "cycles");
}

}  // namespace

void sim_cycles_once(Result& r)
{
    Outcome ref[kKernels];
    Tracer none;
    for (int k = 0; k < kKernels; ++k) {
        ref[k] = run_kernel(k, none).out;
        r.attempted += ref[k].ops;
        r.failed += ref[k].failed;
    }
    add_cycles(ref, r);
}

void sim_suite(const Args& args, Result& r)
{
    if (!pin_to_cpu(1))
        r.note("WARNING: the simulator thread could not be pinned; this run "
               "is scheduler-placed");
    reactive::XorShift64Star rng(mix64(args.seed));
    std::uint32_t seq = 0;
    Loop l = warmed(rng, seq);
    const double t0 = wall_s();
    do {
        l.pass(rng, nullptr, seq);
    } while (wall_s() - t0 < args.seconds);
    r.attempted += l.attempted;
    r.failed += l.failed + l.mismatches;
    // Latency is the host time of one kernel run (set-up and run), over
    // every run of every kernel; throughput is the simulator's speed.
    const double ops_s = static_cast<double>(l.mem_ops) / l.total_s;
    const double p50 = l.latency.quantile(0.50) * ns_per_tick();
    const double p99 = l.latency.quantile(0.99) * ns_per_tick();
    r.add("throughput_ops_s", ops_s, "1/s");
    r.add("latency_p50_ns", p50, "ns");
    r.add("latency_p99_ns", p99, "ns");
    r.note("over " + std::to_string(l.pass_setup_s.size()) + " passes of " +
           std::to_string(kKernels) + " kernel runs: throughput_ops_s = " +
           fmt(ops_s) + " simulated memory ops per host second; " +
           "latency_p50_ns = " + fmt(p50) + ", latency_p99_ns = " + fmt(p99) +
           " per kernel run, n=" + std::to_string(l.runs()) + " (" +
           std::to_string(l.runs() / 100) + " beyond p99)");
    add_cycles(l.ref, r);
    // Every pass sets its kernels up afresh; the median over the passes
    // spreads the repetitions over the whole window.
    r.add("setup_s", median(l.pass_setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    if (l.mismatches)
        r.note("FAIL: " + std::to_string(l.mismatches) +
               " kernel runs did not repeat the first pass exactly");
}

void sim_suite_layers(const Args& args, double budget, Result& r)
{
    pin_to_cpu(1);
    // Untraced and traced passes alternate, so a drift of the host's
    // speed cannot pass for tracing overhead.
    reactive::XorShift64Star rng(mix64(args.seed));
    std::uint32_t seq = 0;
    Loop plain = warmed(rng, seq);
    Loop traced = plain;  // the same references
    traced.attempted = traced.failed = traced.mismatches = 0;
    std::vector<SpanLog> logs;
    logs.emplace_back(kKinds, std::size_t{1} << 16, 0);
    const double t0 = wall_s();
    do {
        plain.pass(rng, nullptr, seq);
        traced.pass(rng, &logs[0], seq);
    } while (wall_s() - t0 < std::max(1.0, budget));
    r.attempted += plain.attempted + traced.attempted;
    r.failed += plain.failed + traced.failed + plain.mismatches + traced.mismatches;

    const std::vector<Histogram> h = merge_kinds(logs, kKinds);
    const double k = ns_per_tick() * 1e-9;
    MachineStats total{};
    std::uint64_t waits = 0;
    for (int i = 0; i < kKernels; ++i) {
        add_stats(total, plain.ref[i].stats);
        waits += plain.ref[i].wait_mode_changes;
    }
    r.add("sim.host_ns_per_memop",
          plain.total_s * 1e9 / static_cast<double>(plain.mem_ops), "ns");
    // Spans: construction + spawn is set-up, run is the simulation.
    const double runs = static_cast<double>(traced.runs()) / kKernels;
    r.add("sim.setup_host_s",
          static_cast<double>(h[kConstruct].sum() + h[kSpawn].sum()) * k / runs, "s");
    r.add("sim.run_host_s", static_cast<double>(h[kRun].sum()) * k / runs, "s");
    for (int i = 0; i < kKernels; ++i) {
        const std::string p = std::string("sim.") + kNames[i];
        r.add(p + ".host_s", median(plain.host_s[i]), "s");
        r.add(p + ".mem_ops", static_cast<double>(plain.ref[i].stats.mem_ops), "count");
        r.add(p + ".protocol_changes",
              static_cast<double>(plain.ref[i].protocol_changes), "count");
    }
    r.add("sim.context_switches", static_cast<double>(total.context_switches), "count");
    r.add("sim.remote_misses", static_cast<double>(total.remote_misses), "count");
    r.add("sim.invalidations", static_cast<double>(total.invalidations), "count");
    r.add("sim.blocks", static_cast<double>(total.blocks), "count");
    r.add("sim.wakes", static_cast<double>(total.wakes), "count");
    r.add("sim.preemptions", static_cast<double>(total.preemptions), "count");
    r.add("waiting.wait_mode_changes", static_cast<double>(waits), "count");
    const double plain_tput = static_cast<double>(plain.mem_ops) / plain.total_s;
    const double traced_tput = static_cast<double>(traced.mem_ops) / traced.total_s;
    r.add("sim.trace_overhead", 1.0 - traced_tput / plain_tput, "ratio");
    if (!write_spans(args.out_dir + "/sim_suite.spans.tsv", logs, kKindNames))
        r.note("WARNING: could not write sim_suite span file");
}

}  // namespace perfbench
