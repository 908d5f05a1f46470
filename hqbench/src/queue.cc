/**
 * @file
 * The message-queue workloads, stream and gate.
 *
 * Each is a closed loop of one caller, one monitored pid, on its own
 * channel into a started one-shard verifier behind the strict kernel
 * gate (speculation window 0, no proactive acks). The caller sends one
 * request's messages, ends it with a System-Call message and blocks in
 * KernelModule::syscallEnter until the verifier has checked everything
 * before it; a full ring blocks it in send as well. The caller and the
 * shard worker are the only busy threads, on two of the host's cores.
 *
 *  - stream: v2 frames, pointer integrity + IFC composed, 2^18 live
 *    pointers per pid (tables larger than L2), 4096 messages per
 *    syscall. Framing, drain/decode and policy probes do the work.
 *  - gate: v1 slots, pointer integrity only, 64 live pointers, 8 checks
 *    per syscall. The kernel gate, ack flush and verifier wake-up do
 *    the work; the policy table fits in L1.
 */

#include <barrier>
#include <cmath>
#include <filesystem>
#include <functional>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "ipc/shm_channel.h"
#include "kernel/kernel.h"
#include "ledger.h"
#include "policy/ifc.h"
#include "policy/pointer_integrity.h"
#include "policy/policy_module.h"
#include "verifier/verifier.h"

namespace hqbench {

using namespace hq;

namespace {

constexpr Addr kPtrBase = 0x10000000;
constexpr Addr kStackBase = 0x30000000;
constexpr Addr kHeapBase = 0x50000000;
constexpr Addr kLabelBase = 0x70000000;
/** write(2): gated, not read-only, not a speculation barrier. */
constexpr std::uint64_t kSysno = 1;
/**
 * One caller and one shard worker. With two callers on two shards, four
 * busy threads filled the 4-vCPU VM, and every figure of stream and gate
 * moved 1.5-2x for minutes at a time with the host's load; one pair kept
 * the per-request times of the host's quiet stretches while it was busy.
 */
constexpr std::size_t kCallers = 1;
constexpr std::size_t kShards = 1;

/**
 * The pointer-integrity part of stream's message mix, per million
 * messages: the opcode mix of the instrumented nginx and xalancbmk
 * streams that the program workload captures at full scale (run.py
 * --workload program --trace 1 prints it as mix_per_million.*).
 * Left out: Init and PointerInvalidate (7 each) and Syscall, whose rate
 * stream sets itself.
 *  - PointerDefine: return pointers pushed at calls, plus re-defines of
 *    live function pointers (the defines beyond the check-invalidates);
 *  - PointerCheckInvalidate: return pointers checked at returns;
 *  - PointerCheck: indirect calls through live function pointers;
 *  - PointerBlockInvalidate: free() of a 48-byte heap object that holds
 *    no pointer. The captured programs send no block copies: their
 *    memcpys move no pointers, so instrumentation sends nothing.
 */
constexpr double kDefinePpm = 450831;
constexpr double kCheckInvalidatePpm = 397034;
constexpr double kCheckPpm = 141650;
constexpr double kBlockInvalidatePpm = 8271;
constexpr std::uint64_t kFreedBytes = 48;
/**
 * Unverified rings per caller for the raw rounds, used in turn. With a
 * single ring the send+drain time per gate request read 230 ns in some
 * runs and 400 ns in others; over eight rings the median moved by under
 * 5% between runs.
 */
constexpr std::size_t kRawRings = 8;
/** Deepest call nesting a request reaches (return pointers live). */
constexpr std::size_t kMaxDepth = 32;
/** Distinct freed heap objects per caller, used in turn. */
constexpr std::size_t kHeapObjects = 1024;

struct QueueConfig
{
    WireFormat format = WireFormat::V1;
    bool ifc = false;             //!< compose IFC with pointer integrity
    std::size_t working_set = 64; //!< live pointers per pid
    std::size_t label_set = 0;    //!< IFC-labelled addresses per pid
    std::size_t request_msgs = 9; //!< messages per syscall, incl. it
    std::size_t requests_per_round = 256;
    std::size_t send_chunk = 9; //!< messages per sendBatch call
    /** Ring slots per channel: two full v2 frames and change, so a
     *  caller runs at most ~170 records ahead of verification. */
    std::size_t ring_slots = 128;
    /** Follow the captured program mix, with label_frac of benign IFC
     *  label ops (stream); otherwise every message before the syscall
     *  is a PointerCheck (gate). */
    bool program_mix = false;
    double label_frac = 0.0;
    /** Requests per caller the ledger replays (from the round's start). */
    std::size_t ledger_requests = 256;
};

QueueConfig
streamConfig(bool tiny)
{
    QueueConfig c;
    c.format = WireFormat::V2;
    c.ifc = true;
    c.working_set = tiny ? (1u << 12) : (1u << 18);
    c.label_set = tiny ? (1u << 8) : (1u << 12);
    c.request_msgs = 4096;
    c.requests_per_round = tiny ? 4 : 64;
    c.send_chunk = frame::kMaxRecords;
    c.label_frac = 0.10;
    c.program_mix = true;
    // One request per caller holds ~30 block invalidates, each a scan
    // of the whole pointer table: enough for a replay to take ~0.5 s.
    c.ledger_requests = 1;
    return c;
}

QueueConfig
gateConfig(bool tiny)
{
    QueueConfig c;
    c.requests_per_round = tiny ? 32 : 256;
    return c;
}

Addr ptrAddr(std::size_t slot) { return kPtrBase + 8 * slot; }
Addr labelAddr(std::size_t slot) { return kLabelBase + 8 * slot; }

/** One caller's generated inputs. */
struct CallerInput
{
    Pid pid = 0;
    std::vector<std::uint64_t> values; //!< pointer value per slot
    std::vector<Message> setup;        //!< working-set definition
    std::vector<Message> cycle;        //!< one round of requests
    /** Offset of each request in cycle, plus cycle.size(). */
    std::vector<std::size_t> starts;
};

/**
 * Generate one caller's inputs from the seed. Every request leaves the
 * policy state as it found it, so the round can be replayed forever
 * without a false violation:
 *  - a call defines a return pointer in a stack slot and its return
 *    checks and invalidates it; calls still open when the request ends
 *    return before its syscall;
 *  - re-defines write a live pointer's own value again;
 *  - freed heap objects hold no pointer, so a block invalidate erases
 *    nothing (it still scans the pointer table);
 *  - even label slots are TAINTED, odd ones PUBLIC; label ops only
 *    re-taint tainted slots, join tainted into tainted or public into
 *    public, and check tainted slots against SECRET and public slots
 *    against TAINTED|SECRET.
 * Block invalidates come at a fixed spacing, as frees do in the
 * captured programs' main loops; the other kinds are drawn at random.
 */
CallerInput
generateCaller(const QueueConfig &c, std::uint64_t seed, Pid pid)
{
    CallerInput in;
    in.pid = pid;
    Rng rng(seed * 0x9e3779b97f4a7c15ull + pid);
    in.values.resize(c.working_set);
    for (auto &v : in.values)
        v = 0x400000000000ull | (rng.next() & 0xffffffffffull);

    auto msg = [pid](Opcode op, std::uint64_t a0, std::uint64_t a1 = 0) {
        Message m(op, a0, a1);
        m.pid = pid;
        return m;
    };

    in.setup.push_back(msg(Opcode::Init, 1));
    for (std::size_t i = 0; i < c.working_set; ++i)
        in.setup.push_back(msg(Opcode::PointerDefine, ptrAddr(i),
                               in.values[i]));
    for (std::size_t j = 0; j < c.label_set; j += 2)
        in.setup.push_back(msg(Opcode::LabelDef, labelAddr(j),
                               label::kTainted));

    auto labelSlot = [&](bool tainted) {
        const std::size_t j = 2 * rng.nextBelow(c.label_set / 2);
        return tainted ? j : j + 1;
    };
    auto labelOp = [&] {
        switch (rng.nextBelow(4)) {
          case 0:
            return msg(Opcode::LabelDef, labelAddr(labelSlot(true)),
                       label::kTainted);
          case 1:
            return msg(Opcode::LabelJoin, labelAddr(labelSlot(true)),
                       labelAddr(labelSlot(true)));
          case 2:
            return msg(Opcode::LabelJoin, labelAddr(labelSlot(false)),
                       labelAddr(labelSlot(false)));
          default: {
            const bool tainted = rng.nextBelow(2) == 0;
            return msg(Opcode::LabelCheck, labelAddr(labelSlot(tainted)),
                       tainted ? label::kSecret
                               : label::kTainted | label::kSecret);
          }
        }
    };
    auto checkOp = [&] {
        const std::size_t s = rng.nextBelow(c.working_set);
        return msg(Opcode::PointerCheck, ptrAddr(s), in.values[s]);
    };

    // Per-message probabilities of the randomly placed kinds.
    const double random_ppm = kDefinePpm + kCheckInvalidatePpm + kCheckPpm;
    const double pi_frac = 1.0 - c.label_frac;
    const double call_p = pi_frac * kCheckInvalidatePpm / random_ppm;
    const double redefine_p =
        pi_frac * (kDefinePpm - kCheckInvalidatePpm) / random_ppm;
    const std::size_t free_every = static_cast<std::size_t>(
        std::lround(1e6 / kBlockInvalidatePpm / pi_frac));

    std::vector<std::uint64_t> stack; // open calls' return pointers
    std::size_t since_free = rng.nextBelow(free_every);
    std::size_t heap_next = 0;
    auto emit = [&](const Message &m) {
        in.cycle.push_back(m);
        if (!c.program_mix || ++since_free < free_every)
            return;
        since_free = 0;
        const Addr obj = kHeapBase + 64 * (heap_next++ % kHeapObjects);
        in.cycle.push_back(
            msg(Opcode::PointerBlockInvalidate, obj, kFreedBytes));
    };
    auto ret = [&] {
        emit(msg(Opcode::PointerCheckInvalidate,
                 kStackBase + 8 * (stack.size() - 1), stack.back()));
        stack.pop_back();
    };
    for (std::size_t r = 0; r < c.requests_per_round; ++r) {
        // A block invalidate may run a request a message or two long.
        in.starts.push_back(in.cycle.size());
        const std::size_t end = in.cycle.size() + c.request_msgs - 1;
        while (in.cycle.size() + stack.size() < end) {
            const double x = static_cast<double>(rng.nextBelow(1u << 20)) /
                             static_cast<double>(1u << 20);
            if (!c.program_mix) {
                emit(checkOp());
            } else if (x < c.label_frac) {
                emit(labelOp());
            } else if (x < c.label_frac + call_p) {
                // A call; it needs room for its own return.
                if (stack.size() == kMaxDepth ||
                    in.cycle.size() + stack.size() + 2 > end)
                    continue;
                stack.push_back(0x400000000000ull |
                                (rng.next() & 0xffffffffffull));
                emit(msg(Opcode::PointerDefine,
                         kStackBase + 8 * (stack.size() - 1), stack.back()));
            } else if (x < c.label_frac + 2 * call_p) {
                if (!stack.empty())
                    ret();
            } else if (x < c.label_frac + 2 * call_p + redefine_p) {
                const std::size_t s = rng.nextBelow(c.working_set);
                emit(msg(Opcode::PointerDefine, ptrAddr(s), in.values[s]));
            } else {
                emit(checkOp());
            }
        }
        while (!stack.empty())
            ret();
        in.cycle.push_back(msg(Opcode::Syscall, kSysno));
    }
    in.starts.push_back(in.cycle.size());
    return in;
}

std::shared_ptr<Policy>
makeQueuePolicy(bool ifc)
{
    if (!ifc)
        return std::make_shared<PointerIntegrityPolicy>();
    auto multi = std::make_shared<MultiPolicy>();
    multi->addPolicy(std::make_unique<PointerIntegrityPolicy>());
    multi->addPolicy(std::make_unique<IfcPolicy>());
    return multi;
}

Verifier::Config
queueVerifierConfig()
{
    Verifier::Config v;
    v.kill_on_violation = true;
    v.check_sequence = true;
    v.check_crc = true;
    v.num_shards = kShards;
    v.proactive_acks = false;
    return v;
}

/** The system under test, as one run builds it. Declaration order is
 *  teardown order reversed: the verifier stops before its channels go. */
struct Harness
{
    KernelModule kernel; //!< default config: the strict gate
    std::vector<std::unique_ptr<ShmChannel>> channels;
    std::unique_ptr<Verifier> verifier;
    std::vector<std::uint64_t> sent; //!< messages sent per caller
};

std::unique_ptr<ShmChannel>
makeRing(const QueueConfig &c)
{
    auto channel = std::make_unique<ShmChannel>(c.ring_slots);
    if (c.format == WireFormat::V2)
        channel->negotiateFormat(WireFormat::V2);
    return channel;
}

Status
sendAll(Channel &channel, const Message *m, std::size_t count,
        std::size_t chunk)
{
    for (std::size_t i = 0; i < count; i += chunk) {
        const Status status =
            channel.sendBatch(m + i, std::min(chunk, count - i));
        if (!status.isOk())
            return status;
    }
    return Status::ok();
}

/** Build the harness and define every caller's working set; the
 *  closing syscall of each caller proves the definitions verified. */
std::unique_ptr<Harness>
buildHarness(const QueueConfig &c, const std::vector<CallerInput> &callers,
             Report &report)
{
    auto h = std::make_unique<Harness>();
    h->verifier = std::make_unique<Verifier>(
        h->kernel, makeQueuePolicy(c.ifc), queueVerifierConfig());
    for (const CallerInput &in : callers) {
        h->channels.push_back(makeRing(c));
        h->verifier->attachChannel(h->channels.back().get(), in.pid);
        if (!h->kernel.enableProcess(in.pid).isOk())
            report.fail("enableProcess refused");
        h->sent.push_back(0);
    }
    // The shard worker inherits the starting thread's CPU set: a core the
    // caller does not use.
    pinThisThread({kShardCpu});
    h->verifier->start();
    pinThisThread({0});
    for (std::size_t i = 0; i < callers.size(); ++i) {
        const CallerInput &in = callers[i];
        Message syscall(Opcode::Syscall, kSysno);
        syscall.pid = in.pid;
        if (!sendAll(*h->channels[i], in.setup.data(), in.setup.size(),
                     c.send_chunk)
                 .isOk() ||
            !h->channels[i]->send(syscall).isOk())
            report.fail("setup send failed");
        h->sent[i] += in.setup.size() + 1;
        report.attempted += in.setup.size() + 2;
        if (!h->kernel.syscallEnter(in.pid, kSysno).isOk())
            report.fail("setup syscall denied");
    }
    return h;
}

/** What one caller thread measured. */
struct CallerStats
{
    LatencyHistogram pause;             //!< untraced phases
    LatencyHistogram request_ns;     //!< monitored: sends + syscall
    /** Per whole round through an unverified ring: its time ÷ its
     *  requests (one timing per round, not per ~300 ns request). */
    std::vector<double> raw_request_ns;
    std::vector<double> backlog;        //!< traced phases only
    std::uint64_t syscalls = 0;
    std::uint64_t denied = 0;
    std::uint64_t send_errors = 0;
    std::uint64_t send_ns = 0;   //!< time in sendBatch (traced phases)
    std::uint64_t send_msgs = 0; //!< messages sent in traced phases
    /** Per block of the current phase: requests completed and the time
     *  spent in them. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
};

/** One measured phase: `blocks` blocks of monitored requests, each
 *  followed by whole rounds through an unverified ring, at least one
 *  and until `raw_seconds` have passed (0 = none). */
struct Phase
{
    std::size_t blocks = 1;
    double block_seconds = 0.0; //!< monitored part; 0 = fixed rounds
    int fixed_rounds = 0;
    double raw_seconds = 0.02;
    bool traced = false;
    /** Run by the main thread after each block, callers idle. */
    std::function<void()> between_blocks;
};

/** Rates over the monitored part of each of a phase's blocks. The
 *  reported rate is the median over blocks, so a slow stretch of the
 *  host moves one block's rate, not the figure. */
struct PhaseResult
{
    std::vector<double> msg_rates;     //!< verified messages per second
    /** Requests completed ÷ time spent in them, summed over callers:
     *  unlike a count over the block's length, not quantised. */
    std::vector<double> syscall_rates;
    std::uint64_t messages = 0;
    std::uint64_t syscalls = 0;

    std::size_t blocks() const { return msg_rates.size(); }
    double msgRate() const { return median(msg_rates); }
    double syscallRate() const { return median(syscall_rates); }
};

class QueueRun
{
  public:
    QueueRun(const QueueConfig &c, std::vector<CallerInput> &callers,
             Harness &h, Tracer &tracer)
        : _c(c), _callers(callers), _h(h), _tracer(tracer),
          _stats(callers.size())
    {
        for (std::size_t i = 0; i < callers.size(); ++i) {
            for (std::size_t r = 0; r < kRawRings; ++r)
                _raw.push_back(makeRing(c));
            _cursor.push_back(0);
        }
    }

    PhaseResult runPhase(const Phase &phase);

    std::vector<CallerStats> &stats() { return _stats; }

  private:
    void caller(std::size_t i, const Phase &phase, std::barrier<> &sync);
    /** The caller's rounds through a ring nobody verifies, drained in
     *  place: the messaging cost without HerQules. */
    void sendRaw(std::size_t i, double seconds);

    /** Messages verified so far. The shards count each drained batch;
     *  Verifier::totalMessages() counts whole drain passes, which under
     *  a closed loop end at request boundaries. */
    std::uint64_t
    verifiedMessages() const
    {
        std::uint64_t n = 0;
        for (std::size_t s = 0; s < kShards; ++s)
            n += _h.verifier->shardMessages(s);
        return n;
    }

    const QueueConfig &_c;
    std::vector<CallerInput> &_callers;
    Harness &_h;
    Tracer &_tracer;
    std::vector<CallerStats> _stats;
    /** kRawRings unverified rings per caller, used in turn. */
    std::vector<std::unique_ptr<ShmChannel>> _raw;
    std::vector<std::size_t> _cursor; //!< next request within the cycle
    std::atomic<std::uint64_t> _deadline{0};
};

void
QueueRun::caller(std::size_t i, const Phase &phase, std::barrier<> &sync)
{
    const CallerInput &in = _callers[i];
    CallerStats &st = _stats[i];
    Channel &channel = *_h.channels[i];
    pinThisThread({kCallerCpu});
    ThreadTrace *trace = phase.traced ? _tracer.thread() : nullptr;
    const std::size_t shard = _h.verifier->shardOf(in.pid);
    const std::size_t per_round = _c.requests_per_round;
    const std::uint64_t fixed_requests =
        static_cast<std::uint64_t>(phase.fixed_rounds) * per_round;
    std::size_t &cursor = _cursor[i];
    const std::uint64_t clock_ns = clockOverheadNs();
    bool killed = false;

    for (std::size_t b = 0; b < phase.blocks; ++b) {
        sync.arrive_and_wait(); // A: deadline published
        const std::uint64_t deadline = _deadline.load();
        auto &[requests, request_ns] = st.blocks.emplace_back(0, 0);
        for (std::uint64_t done = 0; !killed; ++done) {
            if (phase.fixed_rounds > 0 ? done == fixed_requests
                                       : nowNs() >= deadline)
                break;
            const Message *req = in.cycle.data() + in.starts[cursor];
            const std::size_t per_req =
                in.starts[cursor + 1] - in.starts[cursor];
            const std::uint64_t req_id =
                (static_cast<std::uint64_t>(in.pid) << 32) | st.syscalls;
            SpanScope request(trace, "caller.request", req_id);
            const std::uint64_t req_start = nowNs();
            for (std::size_t off = 0; off < per_req; off += _c.send_chunk) {
                const std::size_t n = std::min(_c.send_chunk, per_req - off);
                Status sent;
                {
                    SpanScope span(trace, "ipc.sendBatch", req_id);
                    const std::uint64_t t0 = trace ? nowNs() : 0;
                    sent = channel.sendBatch(req + off, n);
                    if (trace) {
                        const std::uint64_t dt = nowNs() - t0;
                        st.send_ns += dt - std::min(dt, clock_ns);
                        st.send_msgs += n;
                    }
                }
                if (!sent.isOk())
                    ++st.send_errors;
            }
            _h.sent[i] += per_req;
            if (trace) {
                SpanScope span(trace, "verifier.shardQueueDepth", req_id);
                st.backlog.push_back(static_cast<double>(
                    _h.verifier->shardQueueDepth(shard)));
            }
            const std::uint64_t t0 = nowNs();
            Status admitted;
            {
                SpanScope span(trace, "kernel.syscallEnter", req_id);
                admitted = _h.kernel.syscallEnter(in.pid, kSysno);
            }
            const std::uint64_t t1 = nowNs();
            if (!trace) {
                st.pause.record(t1 - t0);
                st.request_ns.record(t1 - req_start);
            }
            ++st.syscalls;
            ++requests;
            request_ns += t1 - req_start;
            if (!admitted.isOk()) {
                ++st.denied;
                killed = _h.kernel.isKilled(in.pid);
            }
            cursor = (cursor + 1) % per_round;
        }
        sync.arrive_and_wait(); // B: monitored part over

        sendRaw(i, phase.raw_seconds);
        sync.arrive_and_wait(); // C: block over
    }
}

void
QueueRun::sendRaw(std::size_t i, double seconds)
{
    if (seconds <= 0)
        return;
    const CallerInput &in = _callers[i];
    std::size_t round = 0;
    const std::uint64_t end =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    for (bool first = true; first || nowNs() < end; first = false) {
        Channel &raw = *_raw[i * kRawRings + round++ % kRawRings];
        const std::uint64_t t0 = nowNs();
        for (std::size_t q = 0; q < _c.requests_per_round; ++q) {
            const Message *req = in.cycle.data() + in.starts[q];
            const std::size_t per_req = in.starts[q + 1] - in.starts[q];
            for (std::size_t off = 0; off < per_req; off += _c.send_chunk) {
                const std::size_t n = std::min(_c.send_chunk, per_req - off);
                if (!raw.sendBatch(req + off, n).isOk())
                    ++_stats[i].send_errors;
                RecvSpan span;
                while (raw.tryPeekSpan(span) && span.total() != 0)
                    raw.consumeSlots(span.total());
            }
        }
        _stats[i].raw_request_ns.push_back(
            static_cast<double>(nowNs() - t0) /
            static_cast<double>(_c.requests_per_round));
    }
}

PhaseResult
QueueRun::runPhase(const Phase &phase)
{
    PhaseResult result;
    for (CallerStats &st : _stats)
        st.blocks.clear();
    std::barrier<> sync(static_cast<std::ptrdiff_t>(_callers.size() + 1));
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < _callers.size(); ++i)
        threads.emplace_back([this, i, &phase, &sync] {
            caller(i, phase, sync);
        });
    for (std::size_t b = 0; b < phase.blocks; ++b) {
        const std::uint64_t start = nowNs();
        _deadline.store(start + static_cast<std::uint64_t>(
                                    phase.block_seconds * 1e9));
        const std::uint64_t m0 = verifiedMessages();
        sync.arrive_and_wait(); // A
        const std::uint64_t t0 = nowNs();
        if (phase.fixed_rounds == 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                _deadline.load() - std::min(_deadline.load(), nowNs())));
        } else {
            sync.arrive_and_wait(); // B: callers done
        }
        const std::uint64_t t1 = nowNs();
        const double dt = static_cast<double>(t1 - t0) / 1e9;
        const std::uint64_t messages = verifiedMessages() - m0;
        result.msg_rates.push_back(static_cast<double>(messages) / dt);
        result.messages += messages;
        if (phase.fixed_rounds == 0)
            sync.arrive_and_wait(); // B
        sync.arrive_and_wait();     // C
        if (phase.between_blocks)
            phase.between_blocks();
    }
    for (std::thread &t : threads)
        t.join();
    for (std::size_t b = 0; b < phase.blocks; ++b) {
        double rate = 0.0;
        for (const CallerStats &st : _stats) {
            const auto [requests, ns] = st.blocks[b];
            result.syscalls += requests;
            if (ns != 0)
                rate += static_cast<double>(requests) * 1e9 /
                        static_cast<double>(ns);
        }
        result.syscall_rates.push_back(rate);
    }
    return result;
}

std::vector<double>
concat(const std::vector<CallerStats> &stats,
       std::vector<double> CallerStats::*field)
{
    std::vector<double> all;
    for (const CallerStats &s : stats)
        all.insert(all.end(), (s.*field).begin(), (s.*field).end());
    return all;
}

} // namespace

void
runQueueWorkload(const Options &o, Report &report)
{
    const bool stream = o.workload == "stream";
    const QueueConfig c = stream ? streamConfig(o.tiny) : gateConfig(o.tiny);

    std::vector<CallerInput> callers;
    for (std::size_t i = 0; i < kCallers; ++i)
        callers.push_back(
            generateCaller(c, o.seed, static_cast<Pid>(1000 + i)));

    std::vector<double> setup_s;
    const std::uint64_t t0 = nowNs();
    std::unique_ptr<Harness> h = buildHarness(c, callers, report);
    setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);

    Tracer tracer;
    QueueRun run(c, callers, *h, tracer);
    Phase phase;
    if (!o.trace)
        phase.between_blocks = [&] {
            sampleSetup(setup_s, report.peak_rss_mb,
                        [&] { return buildHarness(c, callers, report); });
        };
    PhaseResult untraced, traced;
    if (o.rounds > 0) {
        phase.fixed_rounds = o.rounds;
        untraced = run.runPhase(phase);
    } else if (!o.trace) {
        phase.blocks = 10;
        phase.block_seconds = o.seconds / 10.0 * 0.9;
        untraced = run.runPhase(phase);
    } else {
        phase.blocks = 4;
        phase.raw_seconds = 0;
        phase.block_seconds = o.seconds * 0.3 / 4.0;
        untraced = run.runPhase(phase);
    }
    if (o.trace) {
        phase.traced = true;
        phase.raw_seconds = 0;
        traced = run.runPhase(phase);
    }

    // --- Correctness gate --------------------------------------------
    std::vector<CallerStats> &stats = run.stats();
    std::uint64_t table_entries = 0;
    std::uint64_t syscalls = 0, waits = 0;
    for (std::size_t i = 0; i < callers.size(); ++i) {
        const Pid pid = callers[i].pid;
        const CallerStats &st = stats[i];
        report.attempted += h->sent[i] - callers[i].setup.size() - 1 +
                            st.syscalls;
        if (st.denied != 0)
            report.fail("benign syscall denied (pid " +
                            std::to_string(pid) + ")",
                        st.denied);
        if (st.send_errors != 0)
            report.fail("send failed", st.send_errors);
        const std::uint64_t verified = h->verifier->statsFor(pid).messages;
        if (verified != h->sent[i])
            report.fail("pid " + std::to_string(pid) + ": sent " +
                            std::to_string(h->sent[i]) + ", verified " +
                            std::to_string(verified),
                        h->sent[i] > verified ? h->sent[i] - verified : 1);
        if (h->verifier->hasViolation(pid))
            report.fail("false violation on benign traffic (pid " +
                        std::to_string(pid) + ")");
        if (PolicyContext *ctx = h->verifier->contextFor(pid))
            table_entries += ctx->entryCount();
        const KernelProcessStats k = h->kernel.statsFor(pid);
        syscalls += k.syscalls;
        waits += k.waits;
    }
    // Planted violation: a PointerCheck with a forged value, then a
    // System-Call message; the strict gate must refuse that syscall.
    for (std::size_t i = 0; i < callers.size(); ++i) {
        const CallerInput &in = callers[i];
        Message planted[2] = {Message(Opcode::PointerCheck, ptrAddr(0),
                                      in.values[0] ^ 0x5a5a),
                              Message(Opcode::Syscall, kSysno)};
        planted[0].pid = planted[1].pid = in.pid;
        ++report.attempted;
        const bool sent = h->channels[i]->sendBatch(planted, 2).isOk();
        const Status gate = h->kernel.syscallEnter(in.pid, kSysno);
        if (!sent || gate.code() != StatusCode::PolicyViolation)
            report.fail("planted violation not denied (pid " +
                        std::to_string(in.pid) + ")");
    }
    h->verifier->stop();

    std::uint64_t monitored_syscalls = 0;
    for (const CallerStats &st : stats)
        monitored_syscalls += st.syscalls;
    std::uint64_t sent_total = 0;
    for (std::uint64_t s : h->sent)
        sent_total += s;
    report.count("messages_sent", sent_total);
    report.count("syscalls", monitored_syscalls);
    report.count("policy.table_entries", table_entries);
    if (c.program_mix)
        reportMix({&callers[0].cycle}, report);

    if (!o.trace) {
        // Every sample of the run in one histogram each.
        LatencyHistogram pauses, requests;
        for (const CallerStats &st : stats) {
            pauses.merge(st.pause);
            requests.merge(st.request_ns);
        }
        const std::vector<double> raw =
            concat(stats, &CallerStats::raw_request_ns);
        const double request_ns = requests.percentile(0.5);
        report.metric("setup_s", median(setup_s), "s", setup_s.size());
        report.metric("verified_msgs_per_s", untraced.msgRate(), "msg/s",
                      untraced.messages);
        report.metric("syscalls_per_s", untraced.syscallRate(), "1/s",
                      untraced.syscalls);
        report.metric("syscall_pause_p50_us", pauses.percentile(0.50) / 1e3,
                      "us", pauses.count());
        report.metric("syscall_pause_p90_us", pauses.percentile(0.90) / 1e3,
                      "us", pauses.count());
        report.metric("program_s", request_ns / 1e9, "s", requests.count());
        report.metric("slowdown_x", request_ns / median(raw), "ratio",
                      raw.size() * c.requests_per_round);
        return;
    }

    // --- Traced run: ledger over the same streams, then the roll-up.
    LedgerSpec spec;
    for (const CallerInput &in : callers)
        spec.procs.push_back(LedgerProc{
            in.pid, in.setup,
            std::vector<Message>(
                in.cycle.begin(),
                in.cycle.begin() + static_cast<std::ptrdiff_t>(in.starts[
                    std::min(c.ledger_requests, c.requests_per_round)]))});
    spec.batch = c.send_chunk;
    spec.format = c.format;
    spec.channel_kind = ChannelKind::SharedMemory;
    spec.ring_slots = c.ring_slots;
    spec.make_policy = [ifc = c.ifc] { return makeQueuePolicy(ifc); };
    spec.vconfig = queueVerifierConfig();
    spec.sysno = kSysno;
    spec.seconds = o.seconds * 0.3;
    ThreadTrace *main_trace = tracer.thread();
    const LedgerResult ledger = runLedger(spec, report, main_trace);

    std::uint64_t send_ns = 0, send_msgs = 0;
    for (const CallerStats &st : stats) {
        send_ns += st.send_ns;
        send_msgs += st.send_msgs;
    }
    const double expected_send =
        static_cast<double>(send_msgs) * ledger.send_ns;
    const double wait_frac =
        send_ns == 0 ? 0.0
                     : std::max(0.0, static_cast<double>(send_ns) -
                                         expected_send) /
                           static_cast<double>(send_ns);
    std::vector<double> backlog = concat(stats, &CallerStats::backlog);
    const std::uint64_t n_backlog = backlog.size();
    const double backlog_p50 = percentile(backlog, 0.50);
    const double backlog_p99 = percentile(backlog, 0.99);
    const double rate0 = untraced.msgRate();
    const double rate1 = traced.msgRate();

    report.metric("ipc.ring_ns_per_msg", ledger.ring_ns, "ns/msg",
                  ledger.reps);
    report.metric("ipc.send_ns_per_msg", ledger.send_ns, "ns/msg",
                  ledger.reps);
    report.metric("ipc.send_wait_frac", wait_frac, "frac", send_msgs);
    report.metric("ipc.frame_decode_ns_per_msg", ledger.decode_ns, "ns/msg",
                  ledger.reps);
    report.metric("policy.probe_ns_per_msg", ledger.probe_ns, "ns/msg",
                  ledger.reps);
    report.metric("policy.table_entries",
                  static_cast<double>(table_entries), "count", 1);
    report.metric("verifier.poll_ns_per_msg", ledger.poll_ns, "ns/msg",
                  ledger.reps);
    report.metric("verifier.self_ns_per_msg",
                  ledger.poll_ns - ledger.decode_ns - ledger.probe_ns,
                  "ns/msg", ledger.reps);
    report.metric("verifier.shard_speedup_x",
                  rate0 * ledger.poll_ns / 1e9, "ratio", untraced.blocks());
    report.metric("verifier.backlog_p50_msgs", backlog_p50, "msgs",
                  n_backlog);
    report.metric("verifier.backlog_p99_msgs", backlog_p99, "msgs",
                  n_backlog);
    report.metric("kernel.gate_roundtrip_ns", ledger.gate_ns, "ns",
                  ledger.reps);
    report.metric("kernel.waits_frac",
                  syscalls == 0 ? 0.0
                                : static_cast<double>(waits) /
                                      static_cast<double>(syscalls),
                  "frac", syscalls);
    // The VM and the compiler take no part in the queue workloads.
    report.metric("runtime.vm_ns_per_instr", 0.0, "ns/instr", 0);
    report.metric("runtime.hq_ns_per_msg", 0.0, "ns/msg", 0);
    report.metric("runtime.msgs_per_kinstr", 0.0, "msg/kinstr", 0);
    report.metric("compiler.instrument_ms", 0.0, "ms", 0);
    report.metric("telemetry.trace_overhead_frac",
                  rate0 == 0.0 ? 0.0 : (rate0 - rate1) / rate0, "frac",
                  untraced.blocks() + traced.blocks());

    std::filesystem::create_directories(o.out_dir);
    report.trace_file = o.out_dir + "/trace-" + o.workload + ".json";
    if (!tracer.writeChromeTrace(report.trace_file))
        report.trace_file.clear();
    report.layers_json = tracer.rollupJson();
}

} // namespace hqbench
