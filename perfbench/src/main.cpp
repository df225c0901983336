/**
 * @file
 * perfbench: the repository's benchmark program.
 *
 *   perfbench --workload kv_zipf|rw_cache|sim_suite --seed N
 *             --seconds S --trace 0|1 [--out-dir DIR]
 *
 * --trace 0 measures the named workload untraced and reports its
 * end-to-end metrics. --trace 1 runs the named workload's traced
 * section (each layer's calls timed from the benchmark's own code) for
 * most of --seconds, and short traced sections of the other two, so
 * that every per-layer metric is reported. The last line of stdout is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 */
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload kv_zipf|rw_cache|sim_suite"
                 " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
    std::exit(2);
}

Args parse(int argc, char** argv)
{
    Args a;
    bool seen_seed = false;
    for (int i = 1; i < argc; ++i) {
        const char* k = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char* v = argv[++i];
        char* end = nullptr;
        if (std::strcmp(k, "--workload") == 0) {
            a.workload = v;
        } else if (std::strcmp(k, "--seed") == 0) {
            a.seed = std::strtoull(v, &end, 10);
            seen_seed = *end == '\0';
        } else if (std::strcmp(k, "--seconds") == 0) {
            a.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600)
                usage("--seconds must be in (0, 600]");
        } else if (std::strcmp(k, "--trace") == 0) {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace must be 0 or 1");
            a.trace = v[0] == '1';
        } else if (std::strcmp(k, "--out-dir") == 0) {
            a.out_dir = v;
        } else {
            usage("unknown flag");
        }
    }
    if (!seen_seed)
        usage("--seed N is required");
    if (a.workload != "kv_zipf" && a.workload != "rw_cache" &&
        a.workload != "sim_suite")
        usage("unknown workload");
    return a;
}

/// Costs of the platform layer's primitives on this host, on the main
/// thread: the empty span (the timer floor inside every span), one
/// pause (the unit of every spin and backoff loop), and an uncontended
/// exchange (the TTS fast path's atomic).
void platform_layers(Result& r)
{
    constexpr int kN = 1 << 20;
    Histogram empty;
    for (int i = 0; i < kN; ++i) {
        const std::uint64_t t0 = ticks();
        empty.add(ticks() - t0);
    }
    std::atomic<std::uint32_t> word{0};
    std::uint32_t sink = 0;
    const std::uint64_t p0 = ticks();
    for (int i = 0; i < kN; ++i)
        reactive::cpu_relax();
    const std::uint64_t p1 = ticks();
    for (int i = 0; i < kN; ++i)
        sink += word.exchange(sink, std::memory_order_acquire);
    const std::uint64_t p2 = ticks();
    const double k = ns_per_tick();
    r.add("platform.empty_span_ns", empty.quantile(0.5) * k, "ns");
    r.add("platform.pause_ns", static_cast<double>(p1 - p0) * k / kN, "ns");
    r.add("platform.exchange_ns", static_cast<double>(p2 - p1) * k / kN, "ns");
}

void print(const Result& r)
{
    for (const std::string& n : r.notes) {
        std::cout << "# " << n << "\n";
        // A failed run's notes (which check failed) also go to stderr,
        // whose tail survives where only stdout's last line is kept.
        if (r.failed != 0)
            std::cerr << "perfbench: " << n << "\n";
    }
    std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
                  << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv)
{
    const Args args = parse(argc, argv);
    // The main thread only sleeps through measured windows; keep it off
    // the workers' CPUs.
    pin_to_cpu(0);
    (void)ns_per_tick();  // calibrate before any set-up is timed

    Result r;
    if (!args.trace) {
        if (args.workload == "kv_zipf")
            kv_zipf(args, r);
        else if (args.workload == "rw_cache")
            rw_cache(args, r);
        else
            sim_suite(args, r);
    } else {
        // The named workload's section takes most of the time; the
        // others run briefly, as every per-layer metric is reported.
        // With their warm-ups the sections add up to about --seconds.
        const double own = 0.6 * args.seconds;
        const double brief = std::max(1.0, args.seconds / 20.0);
        const auto budget = [&](const char* w) {
            return args.workload == w ? own : brief;
        };
        r.note("traced run: " + args.workload + " traced on " + fmt(own) +
               " s of windows, the other workloads on " + fmt(brief) +
               " s each");
        platform_layers(r);
        kv_zipf_layers(args, budget("kv_zipf"), r);
        rw_cache_layers(args, budget("rw_cache"), r);
        sim_suite_layers(args, budget("sim_suite"), r);
    }
    if (r.attempted == 0)
        r.failed = 1;  // nothing ran: never a valid result
    print(r);
    return 0;
}
