/**
 * @file
 * kv_zipf: a 256-stripe in-memory map, each stripe guarded by a
 * ReactiveMutex, driven by three closed-loop clients with Zipf-skewed
 * keys (s = 0.99). A request is a batch of 8 get/put operations
 * (90/10), stamped once from a shared ReactiveFetchOp version counter.
 * Most stripes stay cold on the TTS fast path; the few stripes holding
 * the hottest keys are the ones that may switch to the queue protocol.
 */
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/reactive_fetch_op.hpp"
#include "core/reactive_mutex.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/tts_lock.hpp"
#include "platform/native_platform.hpp"
#include "platform/prng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using reactive::NativePlatform;

constexpr unsigned kStripes = 256;
constexpr unsigned kKeys = 1u << 16;
constexpr unsigned kKeyMask = kKeys - 1;
constexpr unsigned kPerStripe = kKeys / kStripes;
constexpr unsigned kBatch = 8;
constexpr unsigned kStreamRequests = 1u << 16;  ///< per client, cycled
constexpr double kZipfS = 0.99;
constexpr unsigned kPutPermille = 100;
constexpr std::uint32_t kPutBit = 1u << 31;
/// Key k lives in stripe k % 256, so the hottest ranks 0-3 make
/// stripes 0-3 the hot ones; everything else is "cold".
constexpr unsigned kHotStripes = 4;

// ---- stripe locks --------------------------------------------------------

/// The reactive stripe lock, driven through its public acquire/release
/// (what ReactiveMutex::Guard does) so each call can be timed.
struct ReactiveStripe {
    using Mutex = reactive::ReactiveMutex<NativePlatform>;
    using Node = Mutex::Lock::Node;
    using Token = Mutex::Lock::ReleaseMode;
    Mutex m;
    Token acquire(Node& n) { return m.lock_object().acquire(n); }
    void release(Node& n, Token t) { m.lock_object().release(n, t); }
    static bool queued(Token t)
    {
        return t == Token::kQueue || t == Token::kQueueToTts;
    }
    std::uint64_t protocol_changes() { return m.lock_object().protocol_changes(); }
};

/// Static reference locks, TTS built with the reactive TTS slot's own
/// backoff so the comparison is like-for-like (MCS has no backoff).
struct TunedTts : reactive::TtsLock<NativePlatform> {
    TunedTts() : TtsLock(reactive::ReactiveLockParams{}.backoff) {}
};

template <typename L>
struct StaticStripe {
    using Node = typename L::Node;
    using Token = int;
    L l;
    Token acquire(Node& n)
    {
        l.lock(n);
        return 0;
    }
    void release(Node& n, Token) { l.unlock(n); }
    static bool queued(Token) { return false; }
    std::uint64_t protocol_changes() { return 0; }
};

// ---- the map -------------------------------------------------------------

struct Entry {
    std::uint64_t value;
    std::uint64_t version;
    std::uint64_t puts;
};

inline std::uint64_t value_of(std::uint32_t key, std::uint64_t version)
{
    return mix64((static_cast<std::uint64_t>(key) << 40) ^ version);
}

template <typename L>
struct alignas(64) Stripe {
    L lock;
    Entry e[kPerStripe];
};

template <typename L>
struct Map {
    std::unique_ptr<Stripe<L>[]> stripes{new Stripe<L>[kStripes]};

    Map()
    {
        for (std::uint32_t k = 0; k < kKeys; ++k)
            slot(k) = Entry{value_of(k, 0), 0, 0};
    }
    Entry& slot(std::uint32_t k) { return stripes[k % kStripes].e[k / kStripes]; }
};

/// Per-client state, one cache line apart from its neighbours.
struct alignas(64) Client {
    std::vector<std::uint32_t> ops;     ///< kStreamRequests * kBatch words
    std::vector<std::uint32_t> issued;  ///< puts issued per key
    std::size_t next = 0;               ///< next request in the stream
    reactive::ReactiveFetchOp<NativePlatform>::Node vnode;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::uint64_t measured = 0;
    std::uint64_t sink = 0;
    SliceStats stats;
    // traced-run counters
    std::uint64_t hot_acquires = 0;
    std::uint64_t hot_queued = 0;
};

/// Zipf(s) key streams, one per client, from the run's seed.
std::vector<std::uint32_t> make_stream(const std::vector<double>& cdf,
                                       std::uint64_t seed)
{
    reactive::XorShift64Star rng(mix64(seed));
    std::vector<std::uint32_t> ops(std::size_t{kStreamRequests} * kBatch);
    for (std::uint32_t& w : ops) {
        const double u =
            static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
        const auto rank = static_cast<std::uint32_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        w = std::min(rank, kKeys - 1);
        if (rng.below(1000) < kPutPermille)
            w |= kPutBit;
    }
    return ops;
}

std::vector<double> zipf_cdf()
{
    std::vector<double> cdf(kKeys);
    double sum = 0.0;
    for (unsigned r = 0; r < kKeys; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
        cdf[r] = sum;
    }
    for (double& c : cdf)
        c /= sum;
    return cdf;
}

/// Everything built before the first timed request.
struct Setup {
    static constexpr const char* kRequestCheck =
        "a get returned a value that does not match its key and version";
    std::vector<std::unique_ptr<Client>> clients;
    Map<ReactiveStripe> map;
    reactive::ReactiveFetchOp<NativePlatform> version{16};
    Pool pool{kWorkers};

    explicit Setup(std::uint64_t seed)
    {
        const std::vector<double> cdf = zipf_cdf();
        for (unsigned t = 0; t < kWorkers; ++t) {
            auto c = std::make_unique<Client>();
            c->ops = make_stream(cdf, seed * kWorkers + t);
            c->issued.assign(kKeys, 0);
            clients.push_back(std::move(c));
        }
    }
};

enum Kind : std::uint16_t {
    kRequest,
    kAcquireHot,
    kAcquireCold,
    kRelease,
    kFetchAdd,
    kKinds
};
const std::vector<std::string> kKindNames{"request", "acquire_hot",
                                          "acquire_cold", "release",
                                          "fetch_add"};

/// One request: stamp, then 8 operations, each under its stripe lock.
/// With a span log, every call into a layer is timed and parented by
/// the request. Returns false if a get saw a torn entry.
template <typename L>
bool request(Map<L>& map, reactive::ReactiveFetchOp<NativePlatform>& version,
             Client& c, SpanLog* log, std::uint32_t seq)
{
    const std::uint32_t* ops =
        &c.ops[(c.next++ % kStreamRequests) * std::size_t{kBatch}];
    std::uint64_t t0 = log ? ticks() : 0;
    const std::uint64_t stamp = version.fetch_add(c.vnode, 1) + 1;
    if (log) {
        const std::uint64_t t1 = ticks();
        log->record(kFetchAdd, seq, t0, t1);
    }
    bool ok = true;
    for (unsigned i = 0; i < kBatch; ++i) {
        const std::uint32_t key = ops[i] & kKeyMask;
        const unsigned s = key % kStripes;
        Stripe<L>& st = map.stripes[s];
        Entry& e = st.e[key / kStripes];
        typename L::Node node;
        const std::uint64_t a0 = log ? ticks() : 0;
        const auto tok = st.lock.acquire(node);
        const std::uint64_t a1 = log ? ticks() : 0;
        if (ops[i] & kPutBit) {
            e.version = stamp;
            e.value = value_of(key, stamp);
            ++e.puts;
            ++c.issued[key];
        } else {
            ok &= e.value == value_of(key, e.version);
            c.sink += e.value;
        }
        const std::uint64_t r0 = log ? ticks() : 0;
        st.lock.release(node, tok);
        if (log) {
            const std::uint64_t r1 = ticks();
            const bool hot = s < kHotStripes;
            log->record(hot ? kAcquireHot : kAcquireCold, seq, a0, a1);
            log->record(kRelease, seq, r0, r1);
            if (hot) {
                ++c.hot_acquires;
                c.hot_queued += L::queued(tok) ? 1 : 0;
            }
        }
    }
    return ok;
}

/// Closed loop of one client: next request only after the previous one
/// completed; requests started in a measured slice are timed.
template <typename L>
void client_loop(Map<L>& map, reactive::ReactiveFetchOp<NativePlatform>& version,
                 Client& c, const Slice& slice, SpanLog* log)
{
    std::uint32_t seq = 0;
    for (;;) {
        const std::uint32_t sl = slice.load(std::memory_order_relaxed);
        if (sl == kStop)
            return;
        SpanLog* l =
            measuring(sl) && c.measured % kTraceEvery == 0 ? log : nullptr;
        const std::uint64_t t0 = ticks();
        const bool ok = request(map, version, c, l, seq);
        const std::uint64_t t1 = ticks();
        ++c.requests;
        c.failed += ok ? 0 : 1;
        if (measuring(sl)) {
            c.stats.add(sl, t1 - t0);
            ++c.measured;
            if (l)
                l->record(kRequest, seq++, t0, t1);
        }
    }
}

/// Per-key put tallies must equal the puts the clients issued; the
/// keys that differ are returned and noted in @p r.
template <typename L>
std::uint64_t tally_mismatches(Map<L>& map, const Setup& s, Result& r)
{
    std::uint64_t bad = 0;
    for (std::uint32_t k = 0; k < kKeys; ++k) {
        std::uint64_t issued = 0;
        for (const auto& c : s.clients)
            issued += c->issued[k];
        bad += map.slot(k).puts != issued ? 1 : 0;
    }
    if (bad != 0)
        r.note("FAIL: kv_zipf: " + std::to_string(bad) +
               " keys whose put tally differs from the puts issued");
    return bad;
}

void restart_tallies(Setup& s)
{
    for (auto& c : s.clients)
        std::fill(c->issued.begin(), c->issued.end(), 0);
}

/// Runs one measured window of @p map on the set-up clients and adds
/// its slices to @p into. Put tallies accumulate across windows on the
/// same map; call restart_tallies() before switching to a fresh map.
template <typename L>
void window(Setup& s, Map<L>& map, double seconds, std::vector<SpanLog>* logs,
            Slices& into)
{
    run_clients(s, seconds, into, [&](unsigned t, const Slice& slice) {
        client_loop(map, s.version, *s.clients[t], slice,
                    logs ? &(*logs)[t] : nullptr);
    });
}

/// One window of the set-up clients' streams on a fresh map of @p L;
/// returns its throughput and adds its tally mismatches to @p bad.
template <typename L>
double fresh_window(Setup& s, double seconds, std::uint64_t& bad, Result& r)
{
    Map<L> map;
    restart_tallies(s);
    Slices slices;
    window(s, map, seconds, nullptr, slices);
    bad += tally_mismatches(map, s, r);
    return slices.summary().ops_s;
}

}  // namespace

void kv_zipf(const Args& args, Result& r)
{
    Slices slices;
    run_rounds<Setup>(args.seed, args.seconds, r, [&](Setup& s, double seconds) {
        window(s, s.map, seconds, nullptr, slices);
        account(s, tally_mismatches(s.map, s, r), r);
    });
    r.add_summary(slices.summary(), "requests of 8 operations");
    sim_cycles_once(r);
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void kv_zipf_layers(const Args& args, double budget, Result& r)
{
    auto s = std::make_unique<Setup>(args.seed);
    // A traced window on the set-up map, then kRefRounds rounds of the
    // same streams on fresh maps: reactive, TTS and MCS stripe locks in
    // turn, so a drift of the shared host hits all three alike.
    std::vector<SpanLog> logs;
    for (unsigned t = 0; t < kWorkers; ++t)
        logs.emplace_back(kKinds, std::size_t{1} << 16,
                          static_cast<std::uint16_t>(t));
    Slices traced_slices;
    window(*s, s->map, std::max(0.5, budget / 4.0), &logs, traced_slices);
    const Summary traced = traced_slices.summary();
    std::uint64_t bad = tally_mismatches(s->map, *s, r);

    const double w = std::max(0.2, budget / (4.0 * kRefRounds));
    std::vector<double> plain, tts, mcs;
    for (int i = 0; i < kRefRounds; ++i) {
        plain.push_back(fresh_window<ReactiveStripe>(*s, w, bad, r));
        tts.push_back(fresh_window<StaticStripe<TunedTts>>(*s, w, bad, r));
        mcs.push_back(
            fresh_window<StaticStripe<reactive::McsLock<NativePlatform>>>(*s, w, bad, r));
    }
    const double plain_ops = median(plain), tts_ops = median(tts),
                 mcs_ops = median(mcs);
    account(*s, bad, r);

    const std::vector<Histogram> h = merge_kinds(logs, kKinds);
    const double k = ns_per_tick();
    std::uint64_t hot = 0, queued = 0, changes = 0;
    for (const auto& c : s->clients) {
        hot += c->hot_acquires;
        queued += c->hot_queued;
    }
    for (unsigned i = 0; i < kStripes; ++i)
        changes += s->map.stripes[i].lock.protocol_changes();

    r.add("lock.acquire_cold_p50_ns", h[kAcquireCold].quantile(0.5) * k, "ns");
    r.add("lock.release_p50_ns", h[kRelease].quantile(0.5) * k, "ns");
    r.add("lock.acquire_hot_p99_ns", h[kAcquireHot].quantile(0.99) * k, "ns");
    r.add("lock.queue_share_hot",
          hot ? static_cast<double>(queued) / static_cast<double>(hot) : 0.0,
          "ratio");
    r.add("lock.protocol_changes", static_cast<double>(changes), "count");
    r.add("fetchop.fetch_add_p50_ns", h[kFetchAdd].quantile(0.5) * k, "ns");
    r.add("fetchop.fetch_add_p99_ns", h[kFetchAdd].quantile(0.99) * k, "ns");
    r.add("fetchop.protocol_changes",
          static_cast<double>(s->version.protocol_changes()), "count");

    // Self-time shares of the request span: children are the lock and
    // fetch&add calls; what remains is the benchmark's own request code.
    const auto req = static_cast<double>(h[kRequest].sum());
    const auto lock = static_cast<double>(
        h[kAcquireHot].sum() + h[kAcquireCold].sum() + h[kRelease].sum());
    const auto fop = static_cast<double>(h[kFetchAdd].sum());
    r.add("kv.lock_self_share", lock / req, "ratio");
    r.add("kv.fetchop_self_share", fop / req, "ratio");
    r.add("kv.request_self_share", (req - lock - fop) / req, "ratio");
    r.add("kv.trace_overhead", 1.0 - traced.ops_s / plain_ops, "ratio");

    const double best = std::max(tts_ops, mcs_ops);
    r.add("lock.reactive_ops_s", plain_ops, "1/s");
    r.add("lock.static_tts_ops_s", tts_ops, "1/s");
    r.add("lock.static_mcs_ops_s", mcs_ops, "1/s");
    r.add("lock.vs_best_static", plain_ops / best, "ratio");
    r.note("kv_zipf: lock.vs_best_static = reactive " + fmt(plain_ops) +
           " req/s over best static (" +
           (tts_ops >= mcs_ops ? "TTS " : "MCS ") + fmt(best) +
           " req/s); traced window " + fmt(traced.ops_s) + " req/s, n=" +
           std::to_string(traced.samples) + " requests, 1 in " +
           std::to_string(kTraceEvery) + " traced");
    if (!write_spans(args.out_dir + "/kv_zipf.spans.tsv", logs, kKindNames))
        r.note("WARNING: could not write kv_zipf span file");
}

}  // namespace perfbench
