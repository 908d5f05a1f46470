/**
 * @file
 * hqbench: the HerQules benchmark program.
 *
 *   hqbench --workload stream|gate|program --seed N --seconds S
 *           --trace 0|1 [--tiny] [--rounds N] [--out-dir DIR]
 *
 * Prints one JSON object on its last stdout line: correctness, attempted
 * and failed operation counts, every metric with unit and sample count,
 * exact counts, and the host fingerprint. Exits 0 when every
 * correctness check passed, 3 when one failed, 2 on bad arguments.
 */

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/crc32.h"

#ifndef HQBENCH_BUILD_TYPE
#define HQBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hqbench;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

/** A number as JSON; null for NaN and infinities (which main() counts
 *  as failures). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
usage(const char *why)
{
    std::cerr << "hqbench: " << why
              << "\nusage: hqbench --workload stream|gate|program --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--rounds N] "
                 "[--out-dir DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--tiny") {
            o.tiny = true;
        } else if ((arg == "--workload" || arg == "--seed" ||
                    arg == "--seconds" || arg == "--trace" ||
                    arg == "--rounds" || arg == "--out-dir") &&
                   (v = value()) != nullptr) {
            try {
                if (arg == "--workload")
                    o.workload = v;
                else if (arg == "--seed")
                    o.seed = std::stoull(v);
                else if (arg == "--seconds")
                    o.seconds = std::stod(v);
                else if (arg == "--trace")
                    o.trace = std::stoi(v) != 0;
                else if (arg == "--rounds")
                    o.rounds = std::stoi(v);
                else
                    o.out_dir = v;
            } catch (const std::exception &) {
                return usage(("bad value for " + arg).c_str());
            }
        } else {
            return usage(("unknown or incomplete argument " + arg).c_str());
        }
    }
    if (o.seconds <= 0.0 || o.seconds > 120.0 || o.rounds < 0)
        return usage("--seconds must be in (0, 120], --rounds >= 0");

    // glibc raises its mmap threshold each time a large block is freed,
    // so which later allocations land in (unreturned) arena memory
    // depends on thread timing, and peak RSS moved by 8-18 MB between
    // runs of one seed. Its fixed default keeps the peak a property of
    // the program's allocations.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    Report report;
    if (o.workload == "stream" || o.workload == "gate")
        runQueueWorkload(o, report);
    else if (o.workload == "program")
        runProgramWorkload(o, report);
    else
        return usage("unknown workload");

    if (!o.trace)
        report.metric("peak_rss_mb",
                      report.peak_rss_mb > 0.0 ? report.peak_rss_mb
                                               : peakRssMb(),
                      "MB", 1);

    // A metric or count that is not a number (a division by zero) is a
    // broken measurement, not a result.
    for (const Metric &m : report.metrics)
        if (!std::isfinite(m.value))
            report.fail("metric " + m.name + " is not finite");
    for (const auto &[name, value] : report.counts)
        if (!std::isfinite(value))
            report.fail("count " + name + " is not finite");

    std::ostringstream out;
    out << "{\"correct\":" << (report.correct() ? "true" : "false")
        << ",\"attempted\":" << report.attempted
        << ",\"failed\":" << report.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        out << (i ? "," : "") << jsonString(m.name)
            << ":{\"value\":" << jsonNumber(m.value)
            << ",\"unit\":" << jsonString(m.unit)
            << ",\"samples\":" << m.samples << "}";
    }
    out << "},\"counts\":{";
    for (std::size_t i = 0; i < report.counts.size(); ++i)
        out << (i ? "," : "") << jsonString(report.counts[i].first) << ":"
            << jsonNumber(report.counts[i].second);
    out << "},\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"crc32\":" << jsonString(hq::crc32::implName())
        << ",\"build_type\":" << jsonString(HQBENCH_BUILD_TYPE)
        << ",\"compiler\":" << jsonString(__VERSION__)
        << ",\"seed\":" << o.seed << ",\"seconds\":" << jsonNumber(o.seconds)
        << ",\"tiny\":" << (o.tiny ? "true" : "false")
        << ",\"rounds\":" << o.rounds << "},\"failures\":[";
    for (std::size_t i = 0; i < report.failures.size(); ++i)
        out << (i ? "," : "") << jsonString(report.failures[i]);
    out << "],\"layers\":" << report.layers_json
        << ",\"trace_file\":" << jsonString(report.trace_file) << "}";
    std::cout << out.str() << std::endl;
    return report.correct() ? 0 : 3;
}
