#include "bench.h"

#include <pthread.h>
#include <sys/resource.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include <unistd.h>

namespace hqbench {

double
peakRssMb()
{
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

bool
pinThisThread(const std::vector<int> &cpus)
{
    const int available = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus) {
        if (cpu >= available)
            return false;
        CPU_SET(cpu, &set);
    }
    return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

std::uint64_t
clockOverheadNs()
{
    static const std::uint64_t overhead = [] {
        std::vector<double> deltas;
        for (int i = 0; i < 1001; ++i) {
            const std::uint64_t t0 = nowNs();
            deltas.push_back(static_cast<double>(nowNs() - t0));
        }
        return static_cast<std::uint64_t>(median(deltas));
    }();
    return overhead;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return (lower + upper) / 2.0;
}

double
percentile(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least q of the sample
    // at or below it.
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

void
LatencyHistogram::record(std::uint64_t ns)
{
    std::size_t index = ns;
    if (ns >= kLinear) {
        const int exp = 63 - __builtin_clzll(ns); // >= 7
        const std::size_t sub = (ns >> (exp - 6)) & (kSub - 1);
        index = kLinear + static_cast<std::size_t>(exp - 7) * kSub + sub;
    }
    ++_buckets[std::min(index, _buckets.size() - 1)];
    ++_count;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < _buckets.size(); ++i)
        _buckets[i] += other._buckets[i];
    _count += other._count;
}

double
LatencyHistogram::percentile(double q) const
{
    if (_count == 0)
        return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(_count) + 0.999999);
    rank = std::clamp<std::uint64_t>(rank, 1, _count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (seen < rank)
            continue;
        // The rank's place among the bucket's samples, spread evenly
        // over the bucket [lo, lo + width).
        const double within =
            (static_cast<double>(rank - (seen - _buckets[i])) - 0.5) /
            static_cast<double>(_buckets[i]);
        if (i < kLinear)
            return static_cast<double>(i) + within;
        const std::size_t j = i - kLinear;
        const int exp = static_cast<int>(j / kSub) + 7;
        const double width = std::ldexp(1.0, exp - 6);
        const double lo = std::ldexp(1.0, exp) +
                          static_cast<double>(j % kSub) * width;
        return lo + width * within;
    }
    return 0.0;
}

void
Report::fail(const std::string &why, std::uint64_t n)
{
    failed += n;
    if (failures.size() < 32)
        failures.push_back(why);
    std::cerr << "hqbench: FAILED: " << why << "\n";
}

void
ThreadTrace::end()
{
    const std::uint64_t end_ns = nowNs();
    const Open open = _open.back();
    _open.pop_back();
    const std::uint64_t dur = end_ns - open.start_ns;
    const std::uint64_t self =
        dur > open.child_ns ? dur - open.child_ns : 0;
    std::int64_t parent = -1;
    if (!_open.empty()) {
        _open.back().child_ns += dur;
        parent = _open.back().id;
    }
    SpanTotal *total = nullptr;
    for (SpanTotal &t : _totals)
        if (t.name == open.name)
            total = &t;
    if (total == nullptr) {
        _totals.push_back(SpanTotal{open.name, 0, 0, 0});
        total = &_totals.back();
    }
    ++total->count;
    total->total_ns += dur;
    total->self_ns += self;
    if (_spans.size() < kMaxStored)
        _spans.push_back(
            Span{open.name, open.start_ns, end_ns, open.id, parent, open.req});
}

ThreadTrace *
Tracer::thread()
{
    std::lock_guard<std::mutex> guard(_mutex);
    _threads.push_back(std::make_unique<ThreadTrace>(
        static_cast<std::uint32_t>(_threads.size() + 1)));
    return _threads.back().get();
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> guard(_mutex);
    std::ofstream out(path);
    if (!out)
        return false;
    std::uint64_t origin = ~std::uint64_t{0};
    for (const auto &t : _threads)
        for (const Span &s : t->spans())
            origin = std::min(origin, s.start_ns);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    char buf[512];
    for (const auto &t : _threads) {
        for (const Span &s : t->spans()) {
            std::snprintf(
                buf, sizeof buf,
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                "\"parent\":%lld,\"req_pid\":%llu,\"req_syscall\":%llu}}",
                first ? "" : ",", s.name, t->tid(),
                static_cast<double>(s.start_ns - origin) / 1e3,
                static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                static_cast<long long>(s.id),
                static_cast<long long>(s.parent),
                static_cast<unsigned long long>(s.req >> 32),
                static_cast<unsigned long long>(s.req & 0xffffffffu));
            out << buf;
            first = false;
        }
    }
    out << "\n],\"selfTime\":" << rollupJsonLocked() << "}\n";
    return static_cast<bool>(out);
}

std::string
Tracer::rollupJson() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return rollupJsonLocked();
}

std::string
Tracer::rollupJsonLocked() const
{
    std::vector<SpanTotal> merged;
    for (const auto &t : _threads) {
        for (const SpanTotal &s : t->totals()) {
            auto it = std::find_if(merged.begin(), merged.end(),
                                   [&](const SpanTotal &m) {
                                       return std::string(m.name) == s.name;
                                   });
            if (it == merged.end()) {
                merged.push_back(s);
            } else {
                it->count += s.count;
                it->total_ns += s.total_ns;
                it->self_ns += s.self_ns;
            }
        }
    }
    std::ostringstream out;
    out << "{";
    char buf[256];
    for (std::size_t i = 0; i < merged.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\":{\"count\":%llu,\"total_ms\":%.6f,"
                      "\"self_ms\":%.6f}",
                      i ? "," : "", merged[i].name,
                      static_cast<unsigned long long>(merged[i].count),
                      static_cast<double>(merged[i].total_ns) / 1e6,
                      static_cast<double>(merged[i].self_ns) / 1e6);
        out << buf;
    }
    out << "}";
    return out.str();
}

} // namespace hqbench
