/**
 * @file
 * Shared pieces of the HerQules benchmark program: options, the result
 * report, sample statistics, the clock and the in-memory span tracer.
 *
 * hqbench measures the system from outside: it calls only the
 * public entry points of each module (Channel, Verifier, KernelModule,
 * PolicyContext, frame codec, instrumentModule, Vm) and times those
 * calls itself. Nothing under src/ is instrumented for it.
 */

#ifndef HQBENCH_BENCH_H
#define HQBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hqbench {

/** Command-line options (see main.cc for the flags). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Small working sets and modules, for the benchmark's own tests. */
    bool tiny = false;
    /** Fixed work instead of a time bound: monitored rounds per caller
     *  (stream, gate) or module rounds (program). 0 = use --seconds. */
    int rounds = 0;
    /** Directory for the span dump of a traced run. */
    std::string out_dir = ".bench_out";
};

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** CPUs of the two busy threads: the caller (or the VM) and the shard
 *  worker. On the 4-vCPU VM the benchmark was built on, CPU 0 takes the
 *  network interrupts and CPU 3 the disk interrupts; 1 and 2 take
 *  neither. */
constexpr int kCallerCpu = 1;
constexpr int kShardCpu = 2;

/**
 * Restrict the calling thread to the given CPUs (threads it starts
 * afterwards inherit the set). A no-op returning false when the host
 * has fewer CPUs than named or the call is refused.
 */
bool pinThisThread(const std::vector<int> &cpus);

/** The process's peak resident memory so far, in MB. */
double peakRssMb();

/**
 * One burst of set-up samples: build() constructs a harness and returns
 * it; only the construction is timed, and the harness is destroyed
 * after. A burst repeats until 10 samples or 50 ms of set-up. Workloads
 * take a burst after each measured block or round, so the median
 * set-up time sees the host in the same states as the other figures.
 * Before the first burst, peak_rss_mb takes the peak so far: the
 * throwaway harnesses are the benchmark's memory, not the workload's.
 */
template <typename Build>
void
sampleSetup(std::vector<double> &setup_s, double &peak_rss_mb, Build &&build)
{
    if (peak_rss_mb == 0.0)
        peak_rss_mb = peakRssMb();
    double spent = 0.0;
    for (int n = 0; n < 10 && spent < 0.05; ++n) {
        const std::uint64_t t0 = nowNs();
        auto harness = build();
        const double s = static_cast<double>(nowNs() - t0) / 1e9;
        harness.reset();
        setup_s.push_back(s);
        spent += s;
    }
}

/** Cost of one nowNs() call, subtracted from per-call timings. */
std::uint64_t clockOverheadNs();

/** Median of a sample (0 when empty). */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile (q in [0, 1]) of a sample; sorts in place.
 * Returns 0 for an empty sample.
 */
double percentile(std::vector<double> &values, double q);

/**
 * Log-linear latency histogram: exact below 128 ns, then 64 buckets per
 * power of two (under 1.6% relative error), so millions of samples
 * cost a few KiB instead of growing the run's resident memory.
 */
class LatencyHistogram
{
  public:
    void record(std::uint64_t ns);
    void merge(const LatencyHistogram &other);
    std::uint64_t count() const { return _count; }
    /** Nearest-rank percentile (q in [0, 1]), placed within its bucket
     *  by its rank among the bucket's samples; 0 when empty. */
    double percentile(double q) const;

  private:
    static constexpr int kSub = 64;
    static constexpr int kLinear = 128;
    std::vector<std::uint64_t> _buckets =
        std::vector<std::uint64_t>(kLinear + 58 * kSub, 0);
    std::uint64_t _count = 0;
};

/** One printed metric: value, unit and the samples behind it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/**
 * Everything one run reports. `attempted` counts operations the
 * benchmark asked of the system (messages sent, syscalls entered,
 * program runs); `failed` counts the ones that went wrong: denied or
 * timed-out benign syscalls, messages sent but not verified, false
 * violations, wrong program outputs, and a planted violation that was
 * not denied.
 */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /** Exact counts a fixed-work run must reproduce for a given seed. */
    std::vector<std::pair<std::string, double>> counts;
    /** Per-layer self time from the span roll-up (traced runs). */
    std::string layers_json = "{}";
    std::string trace_file;
    /** Peak RSS of the workload (0 = the process's peak at exit). */
    double peak_rss_mb = 0.0;

    void
    metric(const std::string &name, double value, const std::string &unit,
           std::uint64_t samples)
    {
        metrics.push_back(Metric{name, value, unit, samples});
    }

    void
    count(const std::string &name, double value)
    {
        counts.emplace_back(name, value);
    }

    /** Record `n` failed operations with a reason. */
    void fail(const std::string &why, std::uint64_t n = 1);

    bool correct() const { return failed == 0; }
};

// --- Span tracer ------------------------------------------------------

/** One closed span. Ids are per thread; parent -1 = root. */
struct Span
{
    const char *name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1;
    /** Request id: pid << 32 | syscall index within the caller. */
    std::uint64_t req = 0;
};

/** Aggregate of every span of one name on one thread. */
struct SpanTotal
{
    const char *name = "";
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
};

/**
 * Spans of one thread, kept in memory. Every span feeds the roll-up;
 * the first kMaxStored are also kept for the dump, so a long traced run
 * has bounded memory.
 */
class ThreadTrace
{
  public:
    static constexpr std::size_t kMaxStored = 50000;

    explicit ThreadTrace(std::uint32_t tid) : _tid(tid) {}

    void
    begin(const char *name, std::uint64_t req)
    {
        _open.push_back(Open{name, nowNs(), 0, _next_id++, req});
    }

    void end();

    std::uint32_t tid() const { return _tid; }
    const std::vector<Span> &spans() const { return _spans; }
    const std::vector<SpanTotal> &totals() const { return _totals; }

  private:
    struct Open
    {
        const char *name;
        std::uint64_t start_ns;
        std::uint64_t child_ns;
        std::int64_t id;
        std::uint64_t req;
    };

    std::uint32_t _tid;
    std::int64_t _next_id = 0;
    std::vector<Open> _open;
    std::vector<Span> _spans;
    std::vector<SpanTotal> _totals;
};

/** Owner of all threads' traces; hands one out per thread. */
class Tracer
{
  public:
    ThreadTrace *thread();

    /** Chrome trace-event JSON (open in Perfetto or chrome://tracing). */
    bool writeChromeTrace(const std::string &path) const;

    /** {"name": {"count", "total_ms", "self_ms"}} across threads. */
    std::string rollupJson() const;

  private:
    std::string rollupJsonLocked() const;

    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<ThreadTrace>> _threads;
};

/** RAII span; a null trace makes it free apart from one branch. */
class SpanScope
{
  public:
    SpanScope(ThreadTrace *trace, const char *name, std::uint64_t req = 0)
        : _trace(trace)
    {
        if (_trace)
            _trace->begin(name, req);
    }
    ~SpanScope()
    {
        if (_trace)
            _trace->end();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    ThreadTrace *_trace;
};

// --- Workloads ----------------------------------------------------------

/** stream or gate (the two message-queue workloads). */
void runQueueWorkload(const Options &options, Report &report);

/** program: instrumented SPEC-like modules on the VM. */
void runProgramWorkload(const Options &options, Report &report);

} // namespace hqbench

#endif // HQBENCH_BENCH_H
