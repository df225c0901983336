#include "common.hpp"

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>

namespace perfbench {

double wall_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double calibrate_ns_per_tick()
{
    const double w0 = wall_s();
    const std::uint64_t t0 = ticks();
    sleep_s(0.05);
    const double w1 = wall_s();
    const std::uint64_t t1 = ticks();
    return (w1 - w0) * 1e9 / static_cast<double>(t1 - t0);
}

}  // namespace

double ns_per_tick()
{
    static const double v = calibrate_ns_per_tick();
    return v;
}

void sleep_s(double s)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

double median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double iqm(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

// ---- histogram ---------------------------------------------------------

double Histogram::lower(unsigned i)
{
    if (i < kSub)
        return i;
    const unsigned e = i / kSub + kSubBits - 1;
    const unsigned sub = i % kSub;
    return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(e) -
                                                           static_cast<int>(kSubBits));
}

double Histogram::upper(unsigned i)
{
    if (i < kSub)
        return i + 1.0;
    return lower(i) + std::ldexp(1.0, static_cast<int>(i / kSub) - 1);
}

double Histogram::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    // Rank of the q-quantile among n samples (0-based, continuous).
    const double rank = q * static_cast<double>(n_ - 1);
    std::uint64_t below = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        const std::uint64_t c = counts_[i];
        if (c == 0)
            continue;
        if (rank < static_cast<double>(below + c)) {
            // Spread the bucket's samples evenly over [lower, upper).
            const double pos =
                (rank - static_cast<double>(below) + 0.5) / static_cast<double>(c);
            return lower(i) + pos * (upper(i) - lower(i));
        }
        below += c;
    }
    return upper(kBuckets - 1);
}

// ---- pool --------------------------------------------------------------

bool pin_to_cpu(unsigned cpu)
{
    // The CPUs the process may use, read before the first pin narrows
    // the calling thread's (and its future children's) mask.
    static const cpu_set_t allowed = [] {
        cpu_set_t s;
        CPU_ZERO(&s);
        if (sched_getaffinity(0, sizeof(s), &s) != 0)
            CPU_ZERO(&s);
        return s;
    }();
    if (!CPU_ISSET(cpu, &allowed))
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

Pool::Pool(unsigned workers)
{
    threads_.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        threads_.emplace_back([this, t] { loop(t); });
    while (ready_.load(std::memory_order_acquire) < workers)
        std::this_thread::yield();
}

Pool::~Pool()
{
    quit_.store(true, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (auto& th : threads_)
        th.join();
}

void Pool::loop(unsigned t)
{
    if (!pin_to_cpu(t + 1))
        pin_failures_.fetch_add(1);
    ready_.fetch_add(1, std::memory_order_release);
    std::uint32_t seen = 0;
    for (;;) {
        generation_.wait(seen, std::memory_order_acquire);
        seen = generation_.load(std::memory_order_acquire);
        if (quit_.load(std::memory_order_relaxed))
            return;
        (*job_)(t);
        done_.fetch_add(1, std::memory_order_acq_rel);
        done_.notify_one();
    }
}

void Pool::start(const std::function<void(unsigned)>& job)
{
    job_ = &job;
    done_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
}

void Pool::wait()
{
    const auto n = static_cast<std::uint32_t>(threads_.size());
    for (std::uint32_t d = done_.load(std::memory_order_acquire); d < n;
         d = done_.load(std::memory_order_acquire))
        done_.wait(d, std::memory_order_acquire);
}

unsigned slices_for(double seconds)
{
    const auto n = static_cast<unsigned>(seconds / 0.5 + 0.5);
    return n ? n : 1;
}

std::vector<double> run_window(
    Pool& pool, double warmup_s, double window_s, unsigned slices,
    const std::function<void(unsigned, const Slice&)>& job)
{
    Slice slice{0};
    const std::function<void(unsigned)> bound = [&](unsigned t) {
        job(t, slice);
    };
    pool.start(bound);
    sleep_s(warmup_s);
    std::vector<double> wall(slices);
    double t0 = wall_s();
    for (unsigned i = 0; i < slices; ++i) {
        slice.store(i + 1, std::memory_order_relaxed);
        sleep_s(window_s / slices);
        const double t1 = wall_s();
        wall[i] = t1 - t0;
        t0 = t1;
    }
    slice.store(kStop, std::memory_order_relaxed);
    pool.wait();
    return wall;
}

void Slices::add(const std::vector<const SliceStats*>& clients,
                 const std::vector<double>& slice_s)
{
    const double k = ns_per_tick();
    for (std::size_t i = 0; i < slice_s.size(); ++i) {
        Histogram h;
        std::uint64_t n = 0;
        for (const SliceStats* c : clients) {
            h.merge(c->latency[i]);
            n += c->count[i];
        }
        ops_.push_back(static_cast<double>(n) / slice_s[i]);
        p50_.push_back(h.quantile(0.50) * k);
        p99_.push_back(h.quantile(0.99) * k);
        samples_ += n;
        per_slice_ = std::min(per_slice_, n);
    }
}

Summary Slices::summary() const
{
    Summary s;
    s.slices = static_cast<unsigned>(ops_.size());
    s.samples = samples_;
    s.per_slice = per_slice_;
    s.ops_s = iqm(ops_);
    s.p50_ns = iqm(p50_);
    s.p99_ns = iqm(p99_);
    return s;
}

// ---- spans -------------------------------------------------------------

std::vector<Histogram> merge_kinds(const std::vector<SpanLog>& logs,
                                   unsigned kinds)
{
    std::vector<Histogram> out(kinds);
    for (const SpanLog& l : logs)
        for (unsigned k = 0; k < kinds; ++k)
            out[k].merge(l.hist(k));
    return out;
}

bool write_spans(const std::string& path, const std::vector<SpanLog>& logs,
                 const std::vector<std::string>& kind_names)
{
    std::ofstream f(path);
    if (!f)
        return false;
    std::uint64_t origin = ~std::uint64_t{0};
    for (const SpanLog& l : logs)
        for (const Span& s : l.spans())
            origin = std::min(origin, s.start);
    const double k = ns_per_tick();
    f << "thread\trequest\tkind\tstart_ns\tdur_ns\tself_ns\n";
    for (const SpanLog& l : logs) {
        // Children of each request, for its self time.
        std::map<std::uint32_t, std::uint64_t> child_ticks;
        for (const Span& s : l.spans())
            if (s.kind != 0 && s.request != kNoRequest)
                child_ticks[s.request] += s.end - s.start;
        for (const Span& s : l.spans()) {
            const std::uint64_t dur = s.end - s.start;
            std::uint64_t self = dur;
            if (s.kind == 0) {
                const std::uint64_t c = child_ticks[s.request];
                self = c < dur ? dur - c : 0;
            }
            f << s.thread << '\t' << s.request << '\t' << kind_names[s.kind]
              << '\t' << fmt(static_cast<double>(s.start - origin) * k) << '\t'
              << fmt(static_cast<double>(dur) * k) << '\t'
              << fmt(static_cast<double>(self) * k) << '\n';
        }
    }
    return static_cast<bool>(f);
}

// ---- results -----------------------------------------------------------

void Result::add_summary(const Summary& s, const std::string& what)
{
    add("throughput_ops_s", s.ops_s, "1/s");
    add("latency_p50_ns", s.p50_ns, "ns");
    add("latency_p99_ns", s.p99_ns, "ns");
    note("interquartile means over " + std::to_string(s.slices) +
         " slices: throughput_ops_s = " +
         fmt(s.ops_s) + ", latency_p50_ns = " + fmt(s.p50_ns) +
         ", latency_p99_ns = " + fmt(s.p99_ns) + "; n=" +
         std::to_string(s.samples) + " " + what + " (at least " +
         std::to_string(s.per_slice) + " per slice, " +
         std::to_string(s.per_slice / 100) + " beyond its p99)");
}

double peak_rss_mb()
{
    // VmHWM belongs to this program's address space. getrusage's
    // ru_maxrss would not do: Linux carries it across exec, so it can
    // report the launching process's resident set instead.
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

std::string fmt(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

}  // namespace perfbench
