/**
 * @file
 * rw_cache: one ReactiveRwLock guards a shared table of 32 blocks of 8
 * versioned entries. Three closed-loop clients alternate between long
 * read-mostly phases (95% lookups) and short invalidation phases (25%
 * lookups); a ReactiveBarrier separates the phases, and client 0
 * carries extra local work per request, so the barrier sees a
 * straggler. A request is a batch of 4 operations; a lookup reads one
 * whole block and checks it is a single invalidation's snapshot.
 */
#include <algorithm>
#include <memory>

#include "barrier/reactive_barrier.hpp"
#include "platform/native_platform.hpp"
#include "platform/prng.hpp"
#include "rw/queue_rw_lock.hpp"
#include "rw/reactive_rw_lock.hpp"
#include "rw/simple_rw_lock.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using reactive::NativePlatform;

constexpr unsigned kBlocks = 32;
constexpr unsigned kBlockEntries = 8;
constexpr unsigned kBatch = 4;
/// Requests per client per phase: 90% of requests are read-mostly.
constexpr unsigned kReadPhaseRequests = 1800;
constexpr unsigned kWritePhaseRequests = 200;
constexpr unsigned kReadPermille[2] = {950, 250};
/// Extra local work per request on client 0, the barrier's straggler.
constexpr std::uint32_t kStragglerRounds = 50;
constexpr std::uint8_t kWriteBit = 0x80;
/// Phases' worth of pre-generated operations per client, cycled.
constexpr std::size_t kStreamPhases = 512;

using Barrier = reactive::ReactiveBarrier<NativePlatform>;
using ReactiveRw = reactive::ReactiveRwLock<NativePlatform>;

/// SimpleRwLock with the reactive simple slot's own backoff, so the
/// static reference is tuned like-for-like (QueueRwLock has no backoff).
struct TunedSimpleRw : reactive::SimpleRwLock<NativePlatform> {
    TunedSimpleRw() : SimpleRwLock(reactive::ReactiveRwLockParams{}.backoff) {}
};

struct alignas(64) Block {
    std::uint64_t gen[kBlockEntries];
    std::uint64_t value[kBlockEntries];
    std::uint64_t invalidations;  ///< writes applied to this block
};

inline std::uint64_t value_of(unsigned block, unsigned i, std::uint64_t gen)
{
    return mix64((std::uint64_t{block} << 48) ^ (std::uint64_t{i} << 40) ^ gen);
}

template <typename RW>
struct Table {
    RW lock;
    Block blocks[kBlocks];

    Table()
    {
        for (unsigned b = 0; b < kBlocks; ++b) {
            for (unsigned i = 0; i < kBlockEntries; ++i) {
                blocks[b].gen[i] = 0;
                blocks[b].value[i] = value_of(b, i, 0);
            }
            blocks[b].invalidations = 0;
        }
    }
};

/// Per-client state, one cache line apart from its neighbours.
struct alignas(64) Client {
    /// Pre-generated operations per phase kind (read-mostly, invalidation):
    /// low bits = block, kWriteBit = invalidation.
    std::vector<std::uint8_t> ops[2];
    std::vector<std::uint64_t> issued;  ///< invalidations issued per block
    std::size_t next[2] = {0, 0};
    Barrier::Node bnode;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;      ///< torn lookups
    std::uint64_t misordered = 0;  ///< episodes left before all arrived
    std::uint64_t measured = 0;
    std::uint64_t episodes = 0;
    std::uint64_t sink = 0;
    SliceStats stats;
    // traced-run counters, indexed by phase kind
    std::uint64_t acquires[2] = {0, 0};
    std::uint64_t queued[2] = {0, 0};
    std::uint64_t lag_sum = 0;
    std::uint64_t lag_flips = 0;
    std::uint64_t lag_phases = 0;
};

struct Setup {
    static constexpr const char* kRequestCheck =
        "a lookup saw a torn block (a writer inside the read lock)";
    std::vector<std::unique_ptr<Client>> clients;
    std::unique_ptr<Table<ReactiveRw>> table = std::make_unique<Table<ReactiveRw>>();
    Barrier barrier{kWorkers};
    /// Stop decision for phase p in stop[p % 2], taken by client 0
    /// before it arrives. Client 0 can rewrite a slot only after the
    /// next episode, which every client enters after reading it.
    std::atomic<bool> stop[2] = {};
    /// Completed phases per client, for the barrier ordering check.
    std::atomic<std::uint64_t> done_phases[kWorkers] = {};
    Pool pool{kWorkers};

    explicit Setup(std::uint64_t seed)
    {
        for (unsigned t = 0; t < kWorkers; ++t) {
            auto c = std::make_unique<Client>();
            reactive::XorShift64Star rng(mix64(seed * kWorkers + t));
            // A long stream per phase kind, cycled.
            const std::size_t n[2] = {
                std::size_t{kReadPhaseRequests} * kBatch * kStreamPhases,
                std::size_t{kWritePhaseRequests} * kBatch * kStreamPhases};
            for (int k = 0; k < 2; ++k) {
                c->ops[k].resize(n[k]);
                for (std::uint8_t& op : c->ops[k]) {
                    op = static_cast<std::uint8_t>(rng.below(kBlocks));
                    if (rng.below(1000) >= kReadPermille[k])
                        op |= kWriteBit;
                }
            }
            c->issued.assign(kBlocks, 0);
            clients.push_back(std::move(c));
        }
    }
};

enum Kind : std::uint16_t {
    kRequest,
    kReadAcquire,
    kReadRelease,
    kWriteAcquire,
    kWriteRelease,
    kArrive,
    kKinds
};
const std::vector<std::string> kKindNames{"request",      "read_acquire",
                                          "read_release", "write_acquire",
                                          "write_release", "arrive"};

template <typename RW>
bool queued_token(const typename RW::Node& n)
{
    if constexpr (requires { n.rm; })
        return n.rm == RW::ReleaseMode::kQueue ||
               n.rm == RW::ReleaseMode::kQueueToSimple;
    else
        return false;
}

/// One request: kBatch lookups/invalidations of whole blocks. Returns
/// false if a lookup saw a torn block (entries of two invalidations).
template <typename RW>
bool request(Table<RW>& tab, Client& c, int kind, SpanLog* log,
             std::uint32_t seq)
{
    const std::vector<std::uint8_t>& ops = c.ops[kind];
    bool ok = true;
    for (unsigned i = 0; i < kBatch; ++i) {
        const std::uint8_t op = ops[c.next[kind]++ % ops.size()];
        const unsigned b = op & (kBlocks - 1);
        Block& blk = tab.blocks[b];
        typename RW::Node node;
        const bool write = (op & kWriteBit) != 0;
        const std::uint64_t a0 = log ? ticks() : 0;
        if (write)
            tab.lock.lock_write(node);
        else
            tab.lock.lock_read(node);
        const std::uint64_t a1 = log ? ticks() : 0;
        if (write) {
            const std::uint64_t g = ++blk.invalidations;
            for (unsigned e = 0; e < kBlockEntries; ++e) {
                blk.gen[e] = g;
                blk.value[e] = value_of(b, e, g);
            }
            ++c.issued[b];
        } else {
            const std::uint64_t g = blk.gen[0];
            for (unsigned e = 0; e < kBlockEntries; ++e)
                ok &= blk.gen[e] == g && blk.value[e] == value_of(b, e, g);
            c.sink += g;
        }
        const std::uint64_t r0 = log ? ticks() : 0;
        const bool q = log && queued_token<RW>(node);
        if (write)
            tab.lock.unlock_write(node);
        else
            tab.lock.unlock_read(node);
        if (log) {
            const std::uint64_t r1 = ticks();
            log->record(write ? kWriteAcquire : kReadAcquire, seq, a0, a1);
            log->record(write ? kWriteRelease : kReadRelease, seq, r0, r1);
            ++c.acquires[kind];
            c.queued[kind] += q ? 1 : 0;
        }
    }
    return ok;
}

/// Closed loop of one client over alternating phases. Client 0 decides
/// at each phase end whether the run stops and publishes the decision
/// before arriving, so every client leaves after the same episode.
template <typename RW>
void client_loop(Setup& s, Table<RW>& tab, unsigned t,
                 const Slice& slice, SpanLog* log)
{
    Client& c = *s.clients[t];
    std::uint32_t seq = 0;
    for (std::uint64_t ph = 0;; ++ph) {
        const int kind = ph % 2 == 0 ? 0 : 1;
        const unsigned n = kind == 0 ? kReadPhaseRequests : kWritePhaseRequests;
        // Switch lag (traced, client 0): requests until the protocol
        // hint changes after this phase began.
        const bool watch = log && t == 0 && measuring(slice.load());
        std::uint32_t mode0 = 0;
        if constexpr (requires { tab.lock.protocol_index(); })
            mode0 = tab.lock.protocol_index();
        bool flipped = false;
        for (unsigned i = 0; i < n; ++i) {
            const std::uint32_t sl = slice.load(std::memory_order_relaxed);
            SpanLog* l =
                measuring(sl) && c.measured % kTraceEvery == 0 ? log : nullptr;
            const std::uint64_t t0 = ticks();
            const bool ok = request(tab, c, kind, l, seq);
            if (t == 0)
                c.sink += burn(c.sink | 1, kStragglerRounds);
            const std::uint64_t t1 = ticks();
            ++c.requests;
            c.failed += ok ? 0 : 1;
            if (measuring(sl)) {
                c.stats.add(sl, t1 - t0);
                ++c.measured;
                if (l)
                    l->record(kRequest, seq++, t0, t1);
            }
            if constexpr (requires { tab.lock.protocol_index(); }) {
                if (watch && !flipped &&
                    tab.lock.protocol_index() != mode0) {
                    flipped = true;
                    c.lag_sum += i + 1;
                    ++c.lag_flips;
                }
            }
        }
        c.lag_phases += watch ? 1 : 0;
        if (t == 0)
            s.stop[ph % 2].store(slice.load(std::memory_order_relaxed) == kStop,
                                 std::memory_order_relaxed);
        s.done_phases[t].store(ph + 1, std::memory_order_relaxed);
        const std::uint64_t b0 = log ? ticks() : 0;
        s.barrier.arrive(c.bnode);
        if (log && measuring(slice.load(std::memory_order_relaxed)))
            log->record(kArrive, kNoRequest, b0, ticks());
        ++c.episodes;
        // Every client must have finished this phase.
        for (unsigned u = 0; u < kWorkers; ++u)
            if (s.done_phases[u].load(std::memory_order_relaxed) < ph + 1)
                ++c.misordered;
        if (s.stop[ph % 2].load(std::memory_order_relaxed))
            return;
    }
}

/// Runs one measured window of @p tab on the set-up clients, from a
/// read-mostly phase, and adds its slices to @p into.
template <typename RW>
void window(Setup& s, Table<RW>& tab, double seconds,
            std::vector<SpanLog>* logs, Slices& into)
{
    for (auto& d : s.stop)
        d.store(false);
    for (auto& d : s.done_phases)
        d.store(0);
    run_clients(s, seconds, into, [&](unsigned t, const Slice& slice) {
        client_loop(s, tab, t, slice, logs ? &(*logs)[t] : nullptr);
    });
}

/// Invalidations applied per block must equal those issued, every
/// client must have passed the same number of barrier episodes, and no
/// client may have left an episode before every client arrived at it.
/// Returns the failed checks, each kind noted in @p r.
template <typename RW>
std::uint64_t check(Table<RW>& tab, Setup& s, Result& r)
{
    std::uint64_t tallies = 0, episodes = 0, misordered = 0;
    for (unsigned b = 0; b < kBlocks; ++b) {
        std::uint64_t issued = 0;
        for (const auto& c : s.clients)
            issued += c->issued[b];
        tallies += tab.blocks[b].invalidations != issued ? 1 : 0;
    }
    for (auto& c : s.clients) {
        episodes += c->episodes != s.clients[0]->episodes ? 1 : 0;
        misordered += c->misordered;
        c->misordered = 0;
        std::fill(c->issued.begin(), c->issued.end(), 0);
    }
    if (tallies + episodes + misordered != 0)
        r.note("FAIL: rw_cache: " + std::to_string(tallies) +
               " blocks with lost invalidations, " + std::to_string(episodes) +
               " clients with another episode count, " +
               std::to_string(misordered) +
               " barrier exits before every client arrived");
    return tallies + episodes + misordered;
}

/// One window of the set-up clients' streams on a fresh table guarded
/// by @p RW; returns its throughput and adds its failed checks to @p bad.
template <typename RW>
double fresh_window(Setup& s, double seconds, std::uint64_t& bad, Result& r)
{
    auto tab = std::make_unique<Table<RW>>();
    Slices slices;
    window(s, *tab, seconds, nullptr, slices);
    bad += check(*tab, s, r);
    return slices.summary().ops_s;
}

}  // namespace

void rw_cache(const Args& args, Result& r)
{
    Slices slices;
    run_rounds<Setup>(args.seed, args.seconds, r, [&](Setup& s, double seconds) {
        window(s, *s.table, seconds, nullptr, slices);
        account(s, check(*s.table, s, r), r);
    });
    r.add_summary(slices.summary(), "requests of 4 operations");
    sim_cycles_once(r);
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void rw_cache_layers(const Args& args, double budget, Result& r)
{
    auto s = std::make_unique<Setup>(args.seed);
    // A traced window on the set-up table, then kRefRounds rounds on
    // fresh tables: reactive, simple and queue rwlocks in turn, so a
    // drift of the shared host hits all three alike.
    std::vector<SpanLog> logs;
    for (unsigned t = 0; t < kWorkers; ++t)
        logs.emplace_back(kKinds, std::size_t{1} << 16,
                          static_cast<std::uint16_t>(t));
    Slices traced_slices;
    window(*s, *s->table, std::max(0.5, budget / 4.0), &logs, traced_slices);
    const Summary traced = traced_slices.summary();
    std::uint64_t bad = check(*s->table, *s, r);

    const double w = std::max(0.2, budget / (4.0 * kRefRounds));
    std::vector<double> plain, simple, queue;
    for (int i = 0; i < kRefRounds; ++i) {
        plain.push_back(fresh_window<ReactiveRw>(*s, w, bad, r));
        simple.push_back(fresh_window<TunedSimpleRw>(*s, w, bad, r));
        queue.push_back(
            fresh_window<reactive::QueueRwLock<NativePlatform>>(*s, w, bad, r));
    }
    const double plain_ops = median(plain), simple_ops = median(simple),
                 queue_ops = median(queue);
    account(*s, bad, r);

    const std::vector<Histogram> h = merge_kinds(logs, kKinds);
    const double k = ns_per_tick();
    std::uint64_t acq[2] = {0, 0}, qd[2] = {0, 0};
    for (const auto& c : s->clients)
        for (int i = 0; i < 2; ++i) {
            acq[i] += c->acquires[i];
            qd[i] += c->queued[i];
        }
    const auto share = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    const Client& c0 = *s->clients[0];

    r.add("rw.read_acquire_p50_ns", h[kReadAcquire].quantile(0.5) * k, "ns");
    r.add("rw.read_release_p50_ns", h[kReadRelease].quantile(0.5) * k, "ns");
    r.add("rw.write_acquire_p99_ns", h[kWriteAcquire].quantile(0.99) * k, "ns");
    r.add("rw.queue_share_read_phase", share(qd[0], acq[0]), "ratio");
    r.add("rw.queue_share_write_phase", share(qd[1], acq[1]), "ratio");
    r.add("rw.switch_lag_requests", share(c0.lag_sum, c0.lag_flips), "count");
    r.add("rw.protocol_changes",
          static_cast<double>(s->table->lock.protocol_changes()), "count");
    r.add("barrier.arrive_p50_ns", h[kArrive].quantile(0.5) * k, "ns");
    r.add("barrier.arrive_p99_ns", h[kArrive].quantile(0.99) * k, "ns");
    r.add("barrier.protocol_changes",
          static_cast<double>(s->barrier.protocol_changes()), "count");

    const auto req = static_cast<double>(h[kRequest].sum());
    const auto lock = static_cast<double>(
        h[kReadAcquire].sum() + h[kReadRelease].sum() +
        h[kWriteAcquire].sum() + h[kWriteRelease].sum());
    r.add("rw.lock_self_share", lock / req, "ratio");
    r.add("rw.trace_overhead", 1.0 - traced.ops_s / plain_ops, "ratio");

    const double best = std::max(simple_ops, queue_ops);
    r.add("rw.reactive_ops_s", plain_ops, "1/s");
    r.add("rw.static_simple_ops_s", simple_ops, "1/s");
    r.add("rw.static_queue_ops_s", queue_ops, "1/s");
    r.add("rw.vs_best_static", plain_ops / best, "ratio");
    r.note("rw_cache: rw.vs_best_static = reactive " + fmt(plain_ops) +
           " req/s over best static (" +
           (simple_ops >= queue_ops ? "simple " : "queue ") + fmt(best) +
           " req/s); mode flipped in " + std::to_string(c0.lag_flips) +
           " of " + std::to_string(c0.lag_phases) + " traced phases");
    if (!write_spans(args.out_dir + "/rw_cache.spans.tsv", logs, kKindNames))
        r.note("WARNING: could not write rw_cache span file");
}

}  // namespace perfbench
