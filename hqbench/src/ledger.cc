#include "ledger.h"

#include <cmath>
#include <map>
#include <string>

#include "ipc/frame.h"
#include "ipc/message.h"
#include "ipc/spsc_ring.h"
#include "kernel/kernel.h"

namespace hqbench {

using namespace hq;

namespace {

/** Channel capacity (slots) of the send and poll layers. */
constexpr std::size_t kLedgerSlots = std::size_t{1} << 17;

/** Consume everything queued in a channel without verifying it. */
void
drainAll(Channel &channel)
{
    RecvSpan span;
    if (channel.tryPeekSpan(span)) {
        while (span.total() != 0) {
            channel.consumeSlots(span.total());
            if (!channel.tryPeekSpan(span))
                break;
        }
        return;
    }
    Message buf[256];
    while (channel.tryRecvBatch(buf, 256) != 0) {
    }
}

/**
 * Repeat `rep` (which returns the timed ns of one full replay) until
 * the budget is spent, at least 3 times; returns the median ns per
 * message over the repetitions.
 */
template <typename Rep>
double
medianNsPerMsg(double budget_s, std::uint64_t msgs_per_rep, Rep &&rep,
               std::uint64_t &reps_out)
{
    std::vector<double> per_msg;
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(budget_s * 1e9);
    while (per_msg.size() < 3 ||
           (nowNs() < deadline && per_msg.size() < 2000)) {
        const double ns = static_cast<double>(rep());
        per_msg.push_back(ns / static_cast<double>(msgs_per_rep));
    }
    reps_out += per_msg.size();
    return median(per_msg);
}

Status
sendChunk(Channel &channel, const Message *messages, std::size_t n)
{
    return n == 1 ? channel.send(messages[0])
                  : channel.sendBatch(messages, n);
}

/** A channel of the workload's transport and wire format. */
std::unique_ptr<Channel>
makeLedgerChannel(const LedgerSpec &spec)
{
    std::unique_ptr<Channel> channel =
        makeChannel(spec.channel_kind, kLedgerSlots);
    if (spec.format == WireFormat::V2)
        channel->negotiateFormat(WireFormat::V2);
    return channel;
}

} // namespace

void
reportMix(const std::vector<const std::vector<Message> *> &streams,
          Report &report)
{
    std::map<std::string, std::uint64_t> mix;
    std::uint64_t total = 0;
    for (const std::vector<Message> *stream : streams) {
        for (const Message &m : *stream)
            ++mix[opcodeName(m.op)];
        total += stream->size();
    }
    for (const auto &[name, n] : mix)
        report.count("mix_per_million." + name,
                     std::round(1e6 * static_cast<double>(n) /
                                static_cast<double>(total)));
}

LedgerResult
runLedger(const LedgerSpec &spec, Report &report, ThreadTrace *trace)
{
    LedgerResult result;
    const double budget = spec.seconds / 6.0;
    std::uint64_t total_msgs = 0;
    for (const LedgerProc &proc : spec.procs)
        total_msgs += proc.stream.size();
    if (total_msgs == 0) {
        report.fail("ledger: empty stream");
        return result;
    }

    // --- ipc: raw SPSC ring, push + pop at the workload's batch size.
    {
        SpscRing ring(spec.ring_slots);
        std::vector<Message> out(spec.batch);
        std::uint64_t lost = 0;
        result.ring_ns = medianNsPerMsg(budget, total_msgs, [&] {
            SpanScope span(trace, "ledger.ipc.ring");
            const std::uint64_t t0 = nowNs();
            for (const LedgerProc &proc : spec.procs) {
                const Message *m = proc.stream.data();
                const std::size_t size = proc.stream.size();
                for (std::size_t i = 0; i < size; i += spec.batch) {
                    const std::size_t n = std::min(spec.batch, size - i);
                    const std::size_t pushed = ring.tryPushBatch(m + i, n);
                    lost += n - ring.tryPopBatch(out.data(), pushed);
                }
            }
            return nowNs() - t0;
        }, result.reps);
        if (lost != 0)
            report.fail("ledger: ring lost messages", lost);
    }

    // --- ipc: Channel::sendBatch/send into a channel kept drained.
    {
        auto channel = makeLedgerChannel(spec);
        std::uint64_t errors = 0;
        result.send_ns = medianNsPerMsg(budget, total_msgs, [&] {
            std::uint64_t timed = 0;
            for (const LedgerProc &proc : spec.procs) {
                const Message *m = proc.stream.data();
                const std::size_t size = proc.stream.size();
                std::size_t i = 0;
                while (i < size) {
                    SpanScope span(trace, "ledger.ipc.send");
                    const std::uint64_t t0 = nowNs();
                    while (i < size && channel->pending() < kLedgerSlots / 2) {
                        const std::size_t n = std::min(spec.batch, size - i);
                        if (!sendChunk(*channel, m + i, n).isOk())
                            ++errors;
                        i += n;
                    }
                    timed += nowNs() - t0;
                    drainAll(*channel);
                }
            }
            return timed;
        }, result.reps);
        if (errors != 0)
            report.fail("ledger: send errors", errors);
    }

    // --- ipc: receive-side decode in the workload's wire format.
    {
        std::uint64_t bad = 0;
        if (spec.format == WireFormat::V2) {
            struct FrameRef
            {
                std::size_t offset;
                std::size_t slots;
            };
            std::vector<Message> slots;
            std::vector<FrameRef> frames;
            for (const LedgerProc &proc : spec.procs) {
                std::uint32_t seq = 0;
                const std::size_t size = proc.stream.size();
                for (std::size_t i = 0; i < size; i += spec.batch) {
                    const std::size_t n = std::min(
                        {spec.batch, size - i, frame::kMaxRecords});
                    const std::size_t offset = slots.size();
                    slots.resize(offset + frame::frameSlots(n));
                    frame::encode(proc.stream.data() + i, n, proc.pid, seq,
                                  slots.data() + offset);
                    frames.push_back(FrameRef{offset, frame::frameSlots(n)});
                    seq += static_cast<std::uint32_t>(n);
                }
            }
            const frame::DecodeLimits limits{spec.ring_slots,
                                             Verifier::kMaxPollBatch};
            Message out[frame::kMaxRecords];
            result.decode_ns = medianNsPerMsg(budget, total_msgs, [&] {
                SpanScope span(trace, "ledger.ipc.frame_decode");
                const std::uint64_t t0 = nowNs();
                for (const FrameRef &ref : frames) {
                    RecvSpan view_span;
                    view_span.seg[0] = {slots.data() + ref.offset, ref.slots};
                    frame::FrameView view;
                    if (frame::decode(view_span, limits, view) !=
                        frame::DecodeStatus::Ok) {
                        ++bad;
                        continue;
                    }
                    frame::unpackAll(view_span, view, out);
                }
                return nowNs() - t0;
            }, result.reps);
        } else if (spec.vconfig.check_crc) {
            std::vector<Message> stamped;
            for (const LedgerProc &proc : spec.procs) {
                std::uint32_t seq = 0;
                for (Message m : proc.stream) {
                    m.seq = seq++;
                    m.pad = messageCrc(m);
                    stamped.push_back(m);
                }
            }
            result.decode_ns = medianNsPerMsg(budget, total_msgs, [&] {
                SpanScope span(trace, "ledger.ipc.frame_decode");
                const std::uint64_t t0 = nowNs();
                for (const Message &m : stamped)
                    bad += messageCrc(m) != m.pad;
                return nowNs() - t0;
            }, result.reps);
        }
        if (bad != 0)
            report.fail("ledger: decode rejected clean input", bad);
    }

    // --- policy: prefetchBatch + handleMessage on a populated context.
    {
        std::shared_ptr<Policy> policy = spec.make_policy();
        std::vector<std::unique_ptr<PolicyContext>> contexts;
        std::uint64_t violations = 0;
        for (const LedgerProc &proc : spec.procs) {
            contexts.push_back(policy->makeContext(proc.pid));
            for (const Message &m : proc.setup)
                violations += !contexts.back()->handleMessage(m).isOk();
        }
        result.probe_ns = medianNsPerMsg(budget, total_msgs, [&] {
            SpanScope span(trace, "ledger.policy.probe");
            const std::uint64_t t0 = nowNs();
            for (std::size_t p = 0; p < spec.procs.size(); ++p) {
                PolicyContext &context = *contexts[p];
                const Message *m = spec.procs[p].stream.data();
                const std::size_t size = spec.procs[p].stream.size();
                const std::size_t batch = spec.vconfig.poll_batch;
                for (std::size_t i = 0; i < size; i += batch) {
                    const std::size_t n = std::min(batch, size - i);
                    context.prefetchBatch(m + i, n);
                    for (std::size_t k = 0; k < n; ++k)
                        violations += !context.handleMessage(m[i + k]).isOk();
                }
            }
            return nowNs() - t0;
        }, result.reps);
        if (violations != 0)
            report.fail("ledger: policy flagged benign stream", violations);
    }

    // --- verifier: Verifier::poll on this thread over a filled channel,
    // then kernel: one gate round trip that never has to wait.
    {
        KernelModule kernel;
        Verifier::Config vconfig = spec.vconfig;
        vconfig.num_shards = 1;
        Verifier verifier(kernel, spec.make_policy(), vconfig);
        std::vector<std::unique_ptr<Channel>> channels;
        std::vector<std::uint64_t> sent(spec.procs.size(), 0);
        std::uint64_t errors = 0;

        // Send [i, end) of msgs in chunks while the channel has room;
        // returns the new position.
        auto fill = [&](Channel &channel, const std::vector<Message> &msgs,
                        std::size_t i, std::size_t p) {
            while (i < msgs.size() && channel.pending() < kLedgerSlots / 2) {
                const std::size_t n = std::min(spec.batch, msgs.size() - i);
                if (!sendChunk(channel, msgs.data() + i, n).isOk())
                    ++errors;
                sent[p] += n;
                i += n;
            }
            return i;
        };
        for (std::size_t p = 0; p < spec.procs.size(); ++p) {
            channels.push_back(makeLedgerChannel(spec));
            verifier.attachChannel(channels.back().get(), spec.procs[p].pid);
            if (!kernel.enableProcess(spec.procs[p].pid).isOk())
                ++errors;
            const auto &setup = spec.procs[p].setup;
            std::size_t i = 0;
            while (i < setup.size()) {
                i = fill(*channels[p], setup, i, p);
                while (verifier.poll() != 0) {
                }
            }
        }
        result.poll_ns = medianNsPerMsg(budget, total_msgs, [&] {
            std::uint64_t timed = 0;
            for (std::size_t p = 0; p < spec.procs.size(); ++p) {
                const auto &stream = spec.procs[p].stream;
                std::size_t i = 0;
                while (i < stream.size()) {
                    i = fill(*channels[p], stream, i, p);
                    SpanScope span(trace, "ledger.verifier.poll");
                    const std::uint64_t t0 = nowNs();
                    while (verifier.poll() != 0) {
                    }
                    timed += nowNs() - t0;
                }
            }
            return timed;
        }, result.reps);

        const LedgerProc &proc = spec.procs.front();
        Message syscall(Opcode::Syscall, spec.sysno);
        syscall.pid = proc.pid;
        constexpr int kTrips = 256;
        std::uint64_t denied = 0;
        result.gate_ns = medianNsPerMsg(budget, kTrips, [&] {
            SpanScope span(trace, "ledger.kernel.gate_roundtrip");
            const std::uint64_t t0 = nowNs();
            for (int k = 0; k < kTrips; ++k) {
                if (!channels.front()->send(syscall).isOk())
                    ++errors;
                ++sent.front();
                verifier.poll();
                denied += !kernel.syscallEnter(proc.pid, spec.sysno).isOk();
            }
            return nowNs() - t0;
        }, result.reps);

        for (std::size_t p = 0; p < spec.procs.size(); ++p) {
            const Pid pid = spec.procs[p].pid;
            const std::uint64_t verified = verifier.statsFor(pid).messages;
            if (verified != sent[p])
                report.fail("ledger: pid " + std::to_string(pid) + " sent " +
                                std::to_string(sent[p]) + " verified " +
                                std::to_string(verified),
                            sent[p] > verified ? sent[p] - verified : 1);
            if (verifier.hasViolation(pid))
                report.fail("ledger: verifier flagged benign stream");
        }
        if (errors != 0)
            report.fail("ledger: verifier harness errors", errors);
        if (denied != 0)
            report.fail("ledger: gate denied a benign syscall", denied);
    }
    return result;
}

} // namespace hqbench
