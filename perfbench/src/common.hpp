/**
 * @file
 * Shared machinery of the benchmark program: TSC timing, CPU pinning,
 * a reusable pinned worker pool, latency histograms, span recording
 * for the traced run, and the result record every workload returns.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "platform/cpu.hpp"

namespace perfbench {

// ---- command line ------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";  ///< where the traced run writes its spans
};

// ---- time --------------------------------------------------------------

/// Host wall time in seconds (steady clock).
double wall_s();

/// TSC ticks -> nanoseconds, calibrated once per process against the
/// steady clock (the TSC is constant-rate on every target machine).
double ns_per_tick();

inline std::uint64_t ticks() { return reactive::tsc_now(); }

/// Sleeps the calling thread; the main thread stays idle this way
/// during every measured window.
void sleep_s(double s);

/// Median of a non-empty sample (copied).
double median(std::vector<double> v);

/// Interquartile mean of a non-empty sample: the mean of its middle
/// half. Robust to stalls of the shared host that last a few slices
/// (like a median) and smooth when the slices fall into two regimes
/// (unlike a median, which jumps between them).
double iqm(std::vector<double> v);

// ---- deterministic inputs ---------------------------------------------

/// splitmix64 finalizer: key/version -> value check words, seeds.
inline std::uint64_t mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Deterministic local work (no shared memory): @p rounds xorshift
/// steps folded into the returned word so the compiler keeps them.
inline std::uint64_t burn(std::uint64_t x, std::uint32_t rounds)
{
    for (std::uint32_t i = 0; i < rounds; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

// ---- latency histogram -------------------------------------------------

/**
 * Log-linear histogram of tick counts: 64 linear sub-buckets per power
 * of two (1.6% relative resolution), every sample kept. Percentiles
 * interpolate linearly inside the bucket that holds the rank.
 */
class Histogram {
  public:
    static constexpr unsigned kSubBits = 6;
    static constexpr unsigned kSub = 1u << kSubBits;
    static constexpr unsigned kBuckets = kSub * 58;

    Histogram() : counts_(kBuckets, 0) {}

    void add(std::uint64_t v)
    {
        ++counts_[index(v)];
        ++n_;
        sum_ += v;
    }

    void merge(const Histogram& o)
    {
        for (unsigned i = 0; i < kBuckets; ++i)
            counts_[i] += o.counts_[i];
        n_ += o.n_;
        sum_ += o.sum_;
    }

    std::uint64_t count() const { return n_; }
    std::uint64_t sum() const { return sum_; }

    /// q-quantile in ticks (0 when empty).
    double quantile(double q) const;

  private:
    static unsigned index(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<unsigned>(v);
        const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
        const unsigned sub =
            static_cast<unsigned>(v >> (e - kSubBits)) & (kSub - 1);
        const unsigned i = (e - kSubBits + 1) * kSub + sub;
        return i < kBuckets ? i : kBuckets - 1;
    }
    static double lower(unsigned i);
    static double upper(unsigned i);

    std::vector<std::uint64_t> counts_;
    std::uint64_t n_ = 0;
    std::uint64_t sum_ = 0;
};

// ---- pinned worker pool ------------------------------------------------

/**
 * Fixed pool of worker threads, each pinned to its own CPU (worker t on
 * CPU t + 1, leaving CPU 0 to the idle main thread). start(job) hands
 * every worker the same job, job(t); wait() returns when all finished.
 * The pool is reused across windows, so spawning and pinning are
 * set-up work, paid once.
 */
class Pool {
  public:
    explicit Pool(unsigned workers);
    ~Pool();
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    /// Workers whose pin request failed (their results are flagged).
    unsigned pin_failures() const { return pin_failures_.load(); }

    /// Hands @p job to every worker; it must outlive the matching wait().
    void start(const std::function<void(unsigned)>& job);
    /// Blocks until every worker finished the started job.
    void wait();

  private:
    void loop(unsigned t);

    std::atomic<std::uint32_t> generation_{0};
    std::atomic<std::uint32_t> done_{0};
    std::atomic<std::uint32_t> ready_{0};
    std::atomic<unsigned> pin_failures_{0};
    std::atomic<bool> quit_{false};
    const std::function<void(unsigned)>* job_ = nullptr;
    std::vector<std::thread> threads_;
};

/// Pins the calling thread to @p cpu; false if the CPU is not in the
/// process's allowed set or the request failed.
bool pin_to_cpu(unsigned cpu);

/**
 * Window state, read by the workers once per request: 0 while warming
 * up, then the number (1..slices) of the measured slice in progress,
 * then kStop.
 */
using Slice = std::atomic<std::uint32_t>;
inline constexpr std::uint32_t kStop = ~std::uint32_t{0};

inline bool measuring(std::uint32_t slice) { return slice != 0 && slice != kStop; }

/// Measured slices of about half a second in a @p seconds window.
unsigned slices_for(double seconds);

/**
 * Drives one closed-loop window on @p pool: workers run job(t, slice)
 * while the idle main thread sleeps through @p warmup_s of discarded
 * requests, then @p slices measured slices spanning @p window_s.
 * Returns each slice's wall seconds.
 */
std::vector<double> run_window(
    Pool& pool, double warmup_s, double window_s, unsigned slices,
    const std::function<void(unsigned, const Slice&)>& job);

/// One client's per-slice request counts and latencies.
struct SliceStats {
    std::vector<std::uint64_t> count;
    std::vector<Histogram> latency;

    void reset(unsigned slices)
    {
        count.assign(slices, 0);
        latency.assign(slices, Histogram{});
    }
    void add(std::uint32_t slice, std::uint64_t ticks)
    {
        ++count[slice - 1];
        latency[slice - 1].add(ticks);
    }
};

/// A run's figures as interquartile means over its measured slices, so
/// a transient stall of the shared host moves one slice, not the result.
struct Summary {
    double ops_s = 0;
    double p50_ns = 0;
    double p99_ns = 0;
    std::uint64_t samples = 0;    ///< measured requests, all slices
    std::uint64_t per_slice = 0;  ///< fewest requests in one slice
    unsigned slices = 0;
};

/// Per-slice figures gathered over one or more measured windows.
class Slices {
  public:
    /// Adds the slices of one window: its clients' stats and each
    /// slice's wall seconds.
    void add(const std::vector<const SliceStats*>& clients,
             const std::vector<double>& slice_s);
    Summary summary() const;

  private:
    std::vector<double> ops_, p50_, p99_;
    std::uint64_t samples_ = 0;
    std::uint64_t per_slice_ = ~std::uint64_t{0};
};

// ---- spans (traced run only) -------------------------------------------

/// Parent of spans that belong to no request (barrier arrivals between
/// phases).
inline constexpr std::uint32_t kNoRequest = ~std::uint32_t{0};

/// One timed call into a layer, parented by its request.
struct Span {
    std::uint64_t start;
    std::uint64_t end;
    std::uint32_t request;  ///< per-thread request sequence number
    std::uint16_t kind;     ///< index into the workload's kind names
    std::uint16_t thread;
};

/**
 * Per-thread span store: every span's duration goes into its kind's
 * histogram, and the first `cap` spans are kept verbatim for the span
 * file written at the end of the run.
 */
class SpanLog {
  public:
    SpanLog(unsigned kinds, std::size_t cap, std::uint16_t thread)
        : hist_(kinds), cap_(cap), thread_(thread)
    {
        spans_.reserve(cap);
    }

    void record(std::uint16_t kind, std::uint32_t request,
                std::uint64_t start, std::uint64_t end)
    {
        hist_[kind].add(end - start);
        if (spans_.size() < cap_)
            spans_.push_back(Span{start, end, request, kind, thread_});
    }

    const Histogram& hist(unsigned kind) const { return hist_[kind]; }
    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::vector<Histogram> hist_;
    std::vector<Span> spans_;
    std::size_t cap_;
    std::uint16_t thread_;
};

/// Merged per-kind histograms of a set of thread logs.
std::vector<Histogram> merge_kinds(const std::vector<SpanLog>& logs,
                                   unsigned kinds);

/**
 * Writes the kept spans as TSV (thread, request, kind, start_ns, dur_ns,
 * self_ns; start relative to the earliest span). Request spans (kind 0)
 * get self time = duration minus their children's durations; other
 * spans are leaves. Returns
 * false if the file cannot be written.
 */
bool write_spans(const std::string& path, const std::vector<SpanLog>& logs,
                 const std::vector<std::string>& kind_names);

// ---- results -----------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// What one workload run reports: the JSON line plus human notes.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  ///< printed before the JSON line

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back(Metric{std::move(name), value, std::move(unit)});
    }
    void note(std::string line) { notes.push_back(std::move(line)); }
    /// Adds throughput_ops_s, latency_p50_ns and latency_p99_ns, with
    /// the sample counts noted next to the percentiles.
    void add_summary(const Summary& s, const std::string& what);
};

/// Peak resident set of the program (VmHWM), MiB.
double peak_rss_mb();

/// Formats a double with enough digits for the JSON line.
std::string fmt(double v);

}  // namespace perfbench
