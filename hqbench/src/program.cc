/**
 * @file
 * The program workload: the synthetic nginx and xalancbmk profiles,
 * built with buildSpecModule, instrumented for HQ-CFI-RetPtr and run on
 * the VM under HqRuntime over an AppendWrite-µarch model channel into a
 * one-shard verifier behind the strict kernel gate. Every instrumented
 * Vm::run is interleaved with an uninstrumented run of the same module,
 * so the slowdown is a ratio of neighbouring runs (paper Fig. 3/5).
 *
 * This is the only workload in which VM emit and compiler
 * instrumentation carry weight, and its message mix is a real
 * instrumented program's.
 */

#include <filesystem>
#include <functional>

#include "bench.h"
#include "cfi/design.h"
#include "ipc/channel.h"
#include "kernel/kernel.h"
#include "ledger.h"
#include "policy/pointer_integrity.h"
#include "runtime/runtime.h"
#include "runtime/vm.h"
#include "verifier/verifier.h"
#include "workloads/spec_generator.h"
#include "workloads/spec_profiles.h"

namespace hqbench {

using namespace hq;

namespace {

constexpr std::uint64_t kSysno = 1;
constexpr std::size_t kChannelSlots = std::size_t{1} << 16;
const char *const kProfiles[] = {"nginx", "xalancbmk"};
constexpr std::size_t kNumProfiles = 2;

/**
 * Channel wrapper handed to HqRuntime: forwards every send to the real
 * channel (which the verifier drains) and, optionally, records the
 * message stream or times each send. Receiving goes to the real
 * channel.
 */
class RecordingChannel : public Channel
{
  public:
    RecordingChannel(Channel &inner, std::vector<Message> *record,
                     ThreadTrace *trace)
        : _inner(inner), _record(record), _trace(trace)
    {}

    bool tryRecv(Message &out) override { return _inner.tryRecv(out); }
    std::size_t pending() const override { return _inner.pending(); }
    const ChannelTraits &traits() const override { return _inner.traits(); }

    std::uint64_t sendNs() const { return _send_ns; }
    std::uint64_t sends() const { return _sends; }

  protected:
    Status
    sendImpl(const Message &message) override
    {
        if (_record) {
            Message clean = message;
            clean.seq = 0;
            clean.pad = 0;
            _record->push_back(clean);
        }
        if (!_trace)
            return _inner.send(message);
        SpanScope span(_trace, "ipc.send");
        const std::uint64_t t0 = nowNs();
        const Status status = _inner.send(message);
        const std::uint64_t dt = nowNs() - t0;
        _send_ns += dt - std::min(dt, _clock_ns);
        ++_sends;
        return status;
    }

  private:
    Channel &_inner;
    std::vector<Message> *_record;
    ThreadTrace *_trace;
    std::uint64_t _clock_ns = clockOverheadNs();
    std::uint64_t _send_ns = 0;
    std::uint64_t _sends = 0;
};

/**
 * Observes the VM's instruction stream to time each syscall from the
 * outside: the VM calls onInstr() before executing an instruction, so
 * the gap between a Syscall instruction and the next instruction is
 * the pause in KernelModule::syscallEnter. Used only in probe and
 * traced runs, never in runs whose Vm::run time is reported.
 */
class SyscallProbe : public CycleSink
{
  public:
    SyscallProbe(LatencyHistogram &pause, std::vector<double> *backlog,
                 Verifier *verifier, ThreadTrace *trace, Pid pid)
        : _pause(pause), _backlog(backlog), _verifier(verifier),
          _trace(trace), _pid(pid)
    {}

    void
    onInstr(const ir::Instr &instr) override
    {
        if (_in_syscall) {
            _pause.record(nowNs() - _t0);
            _in_syscall = false;
            if (_trace)
                _trace->end();
        }
        if (instr.op == ir::IrOp::Syscall) {
            if (_backlog)
                _backlog->push_back(
                    static_cast<double>(_verifier->shardQueueDepth(0)));
            if (_trace)
                _trace->begin("kernel.syscallEnter",
                              (static_cast<std::uint64_t>(_pid) << 32) |
                                  _syscalls);
            ++_syscalls;
            _in_syscall = true;
            _t0 = nowNs();
        }
    }

    /** Close a syscall the run ended in (killed at the gate). */
    void
    finish()
    {
        if (_in_syscall && _trace)
            _trace->end();
        _in_syscall = false;
    }

  private:
    LatencyHistogram &_pause;
    std::vector<double> *_backlog;
    Verifier *_verifier;
    ThreadTrace *_trace;
    Pid _pid;
    std::uint64_t _syscalls = 0;
    bool _in_syscall = false;
    std::uint64_t _t0 = 0;
};

struct Program
{
    ir::Module plain;
    ir::Module instrumented;
    std::uint64_t expected = 0; //!< uninstrumented return value
};

Verifier::Config
programVerifierConfig()
{
    Verifier::Config v;
    v.kill_on_violation = true;
    v.num_shards = 1;
    v.proactive_acks = false;
    return v;
}

struct Harness
{
    KernelModule kernel; //!< default config: the strict gate
    std::unique_ptr<Verifier> verifier;
    std::vector<Program> programs;
    Pid next_pid = 100;
};

/** Module build + instrumentation + harness construction. */
std::unique_ptr<Harness>
buildHarness(double scale, std::vector<double> &instrument_ms,
             Report &report)
{
    auto h = std::make_unique<Harness>();
    double ms = 0.0;
    for (const char *name : kProfiles) {
        Program p;
        p.plain = buildSpecModule(specProfile(name), scale);
        p.instrumented = p.plain;
        const std::uint64_t t0 = nowNs();
        const Status status = instrumentModule(p.instrumented,
                                               CfiDesign::HqRetPtr);
        ms += static_cast<double>(nowNs() - t0) / 1e6;
        if (!status.isOk())
            report.fail("instrumentModule failed: " + status.toString());
        h->programs.push_back(std::move(p));
    }
    instrument_ms.push_back(ms / kNumProfiles);
    h->verifier = std::make_unique<Verifier>(
        h->kernel, std::make_shared<PointerIntegrityPolicy>(),
        programVerifierConfig());
    // The shard worker inherits kShardCpu; the VM runs on kCallerCpu.
    pinThisThread({kShardCpu});
    h->verifier->start();
    pinThisThread({kCallerCpu});
    return h;
}

/** What one instrumented Vm::run produced. */
struct InstrRun
{
    double ns = 0;
    std::uint64_t messages = 0;
    std::uint64_t instructions = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t waits = 0;
    std::uint64_t table_entries = 0;
};

struct RunHooks
{
    CycleSink *sink = nullptr;
    std::vector<Message> *record = nullptr;
    ThreadTrace *trace = nullptr;
    std::uint64_t *send_ns = nullptr;
    std::uint64_t *sends = nullptr;
};

InstrRun
runInstrumented(Harness &h, Program &program, Pid pid, const RunHooks &hooks,
                Report &report)
{
    InstrRun run;
    auto channel = makeChannel(ChannelKind::UarchModel, kChannelSlots);
    h.verifier->attachChannel(channel.get(), pid);
    std::unique_ptr<RecordingChannel> wrapper;
    Channel *runtime_channel = channel.get();
    if (hooks.record || hooks.trace) {
        wrapper = std::make_unique<RecordingChannel>(*channel, hooks.record,
                                                     hooks.trace);
        runtime_channel = wrapper.get();
    }
    HqRuntime runtime(pid, *runtime_channel, h.kernel);
    if (!runtime.enable().isOk())
        report.fail("runtime enable refused");
    VmConfig config = makeVmConfig(CfiDesign::HqRetPtr);
    config.cycle_sink = hooks.sink;
    RunResult result;
    {
        Vm vm(program.instrumented, config, &runtime);
        SpanScope span(hooks.trace, "runtime.Vm::run",
                       static_cast<std::uint64_t>(pid) << 32);
        const std::uint64_t t0 = nowNs();
        result = vm.run();
        run.ns = static_cast<double>(nowNs() - t0);
    }
    if (wrapper && hooks.send_ns) {
        *hooks.send_ns += wrapper->sendNs();
        *hooks.sends += wrapper->sends();
    }
    ++report.attempted;
    if (result.exit != ExitKind::Ok)
        report.fail("instrumented run ended " +
                    std::string(exitKindName(result.exit)) + ": " +
                    result.detail);
    else if (result.return_value != program.expected)
        report.fail("instrumented run returned a different value");

    // The VM's exit tears the process down; the verifier drains the
    // channel first, so every sent message must be counted by now.
    run.messages = runtime.messagesSent();
    report.attempted += run.messages;
    const std::uint64_t verified = h.verifier->statsFor(pid).messages;
    if (verified != run.messages)
        report.fail("pid " + std::to_string(pid) + ": sent " +
                        std::to_string(run.messages) + ", verified " +
                        std::to_string(verified),
                    run.messages > verified ? run.messages - verified : 1);
    if (h.verifier->hasViolation(pid))
        report.fail("false violation in instrumented run");
    if (PolicyContext *ctx = h.verifier->contextFor(pid))
        run.table_entries = ctx->entryCount();
    const KernelProcessStats k = h.kernel.statsFor(pid);
    run.syscalls = k.syscalls;
    run.waits = k.waits;
    report.attempted += k.syscalls;
    run.instructions = result.instructions;
    h.verifier->detachChannel(channel.get());
    return run;
}

double
runPlain(Program &program, std::uint64_t &instructions, Report &report)
{
    Vm vm(program.plain, VmConfig{}, nullptr);
    const std::uint64_t t0 = nowNs();
    const RunResult result = vm.run();
    const double ns = static_cast<double>(nowNs() - t0);
    instructions = result.instructions;
    ++report.attempted;
    if (result.exit != ExitKind::Ok)
        report.fail("uninstrumented run failed: " + result.detail);
    else if (result.return_value != program.expected)
        report.fail("uninstrumented run returned a different value");
    return ns;
}

/** Sums over one round: each profile once instrumented, once plain. */
struct Round
{
    double instr_ns = 0;
    double plain_ns = 0;
    std::uint64_t messages = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t waits = 0;
    std::uint64_t instructions = 0; //!< instrumented runs
    std::uint64_t plain_instructions = 0;
    std::uint64_t table_entries = 0;
};

struct RoundOptions
{
    bool probe = true;  //!< add a probed run per profile (pause samples)
    bool plain = true;  //!< add the uninstrumented neighbour
    ThreadTrace *trace = nullptr;
    std::vector<double> *backlog = nullptr;
    std::uint64_t *send_ns = nullptr;
    std::uint64_t *sends = nullptr;
    /** Run after each round (set-up samples). */
    std::function<void()> after_round;
};

Round
runRound(Harness &h, std::size_t k, std::uint64_t seed,
         LatencyHistogram &pause, const RoundOptions &ro,
         Report &report)
{
    Round round;
    // The seed fixes which profile goes first and which of the pair of
    // runs leads; alternating the lead cancels warm-cache bias.
    const std::size_t first = (seed + k / 2) % kNumProfiles;
    for (std::size_t j = 0; j < kNumProfiles; ++j) {
        const std::size_t p = (first + j) % kNumProfiles;
        Program &program = h.programs[p];
        const bool plain_first = ((k + p + seed) % 2) == 0;
        std::uint64_t plain_instr = 0;
        if (ro.plain && plain_first)
            round.plain_ns += runPlain(program, plain_instr, report);
        RunHooks hooks;
        std::unique_ptr<SyscallProbe> traced_probe;
        if (ro.trace) {
            traced_probe = std::make_unique<SyscallProbe>(
                pause, ro.backlog, h.verifier.get(), ro.trace,
                h.next_pid);
            hooks.sink = traced_probe.get();
            hooks.trace = ro.trace;
            hooks.send_ns = ro.send_ns;
            hooks.sends = ro.sends;
        }
        const InstrRun run =
            runInstrumented(h, program, h.next_pid++, hooks, report);
        if (traced_probe)
            traced_probe->finish();
        if (ro.plain && !plain_first)
            round.plain_ns += runPlain(program, plain_instr, report);
        round.instr_ns += run.ns;
        round.messages += run.messages;
        round.syscalls += run.syscalls;
        round.waits += run.waits;
        round.instructions += run.instructions;
        round.plain_instructions += plain_instr;
        round.table_entries += run.table_entries;
        if (ro.probe) {
            SyscallProbe probe(pause, nullptr, h.verifier.get(), nullptr,
                               h.next_pid);
            RunHooks probe_hooks;
            probe_hooks.sink = &probe;
            runInstrumented(h, program, h.next_pid++, probe_hooks, report);
            probe.finish();
        }
    }
    return round;
}

template <typename Field>
std::vector<double>
perRound(const std::vector<Round> &rounds, Field field)
{
    std::vector<double> out;
    for (const Round &r : rounds)
        out.push_back(field(r));
    return out;
}

/** Rounds until the deadline (or exactly `fixed` rounds); every
 *  probed syscall pause goes into `pause`. */
std::vector<Round>
runRounds(Harness &h, std::uint64_t seed, double seconds, int fixed,
          LatencyHistogram &pause, const RoundOptions &ro, std::size_t &k,
          Report &report)
{
    std::vector<Round> rounds;
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    while (fixed > 0 ? rounds.size() < static_cast<std::size_t>(fixed)
                     : (rounds.size() < 3 || nowNs() < deadline)) {
        rounds.push_back(runRound(h, k++, seed, pause, ro, report));
        if (ro.after_round)
            ro.after_round();
    }
    return rounds;
}

} // namespace

void
runProgramWorkload(const Options &o, Report &report)
{
    const double scale = o.tiny ? 0.05 : 1.0;
    std::vector<double> setup_s, instrument_ms;
    const std::uint64_t t0 = nowNs();
    std::unique_ptr<Harness> h = buildHarness(scale, instrument_ms, report);
    setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    // The expected return values, before any instrumented run.
    for (Program &program : h->programs) {
        Vm vm(program.plain, VmConfig{}, nullptr);
        const RunResult result = vm.run();
        ++report.attempted;
        if (result.exit != ExitKind::Ok)
            report.fail("uninstrumented run failed: " + result.detail);
        program.expected = result.return_value;
    }

    LatencyHistogram pauses;
    std::size_t k = 0;
    RoundOptions ro;
    if (!o.trace)
        ro.after_round = [&] {
            sampleSetup(setup_s, report.peak_rss_mb, [&] {
                return buildHarness(scale, instrument_ms, report);
            });
        };
    const double live = o.trace ? o.seconds * 0.3 : o.seconds;
    const std::vector<Round> rounds =
        runRounds(*h, o.seed, live, o.rounds, pauses, ro, k, report);

    Tracer tracer;
    std::vector<Round> traced;
    std::vector<double> backlog;
    LatencyHistogram traced_pauses;
    std::uint64_t send_ns = 0, sends = 0;
    std::vector<std::vector<Message>> captured(kNumProfiles);
    std::vector<Pid> captured_pid(kNumProfiles);
    if (o.trace) {
        RoundOptions tro;
        tro.probe = false;
        tro.plain = false;
        tro.trace = tracer.thread();
        tro.backlog = &backlog;
        tro.send_ns = &send_ns;
        tro.sends = &sends;
        traced = runRounds(*h, o.seed, o.seconds * 0.3, o.rounds,
                           traced_pauses, tro, k, report);
        // Capture pass: each profile's message stream, recorded at the
        // runtime's channel, for the ledger to replay.
        for (std::size_t p = 0; p < kNumProfiles; ++p) {
            RunHooks hooks;
            hooks.record = &captured[p];
            captured_pid[p] = h->next_pid;
            runInstrumented(*h, h->programs[p], h->next_pid++, hooks, report);
        }
        // The source of the stream workload's message mix (queue.cc).
        reportMix({&captured[0], &captured[1]}, report);
    }

    // Planted violation: a fresh monitored pid per profile defines a
    // pointer, checks it with a forged value and enters a syscall; the
    // strict gate must refuse it.
    for (std::size_t p = 0; p < kNumProfiles; ++p) {
        const Pid pid = h->next_pid++;
        auto channel = makeChannel(ChannelKind::UarchModel, kChannelSlots);
        h->verifier->attachChannel(channel.get(), pid);
        HqRuntime runtime(pid, *channel, h->kernel);
        ++report.attempted;
        if (!runtime.enable().isOk())
            report.fail("runtime enable refused");
        runtime.sendDefine(0x10000040, 0x400123);
        runtime.sendCheck(0x10000040, 0x400123 ^ 0x5a5a);
        runtime.sendSyscallMsg(kSysno);
        if (runtime.syscallEnter(kSysno).code() != StatusCode::PolicyViolation)
            report.fail("planted violation not denied (pid " +
                        std::to_string(pid) + ")");
        h->verifier->detachChannel(channel.get());
    }
    h->verifier->stop();

    const Round &r0 = rounds.front();
    const double msgs_per_kinstr =
        static_cast<double>(r0.messages) * 1000.0 /
        static_cast<double>(r0.instructions);
    report.count("messages_sent", r0.messages);
    report.count("syscalls", r0.syscalls);
    report.count("policy.table_entries", r0.table_entries);
    report.count("runtime.msgs_per_kinstr", msgs_per_kinstr);

    const auto instr_s = perRound(rounds, [](const Round &r) {
        return r.instr_ns / 1e9;
    });
    if (!o.trace) {
        // Medians over rounds: a slow stretch of the host moves a few
        // rounds, not the figure.
        std::uint64_t messages = 0, syscalls = 0;
        for (const Round &r : rounds) {
            messages += r.messages;
            syscalls += r.syscalls;
        }
        report.metric("setup_s", median(setup_s), "s", setup_s.size());
        report.metric("verified_msgs_per_s",
                      median(perRound(rounds, [](const Round &r) {
                          return static_cast<double>(r.messages) /
                                 (r.instr_ns / 1e9);
                      })),
                      "msg/s", messages);
        report.metric("syscalls_per_s",
                      median(perRound(rounds, [](const Round &r) {
                          return static_cast<double>(r.syscalls) /
                                 (r.instr_ns / 1e9);
                      })),
                      "1/s", syscalls);
        report.metric("syscall_pause_p50_us", pauses.percentile(0.50) / 1e3,
                      "us", pauses.count());
        report.metric("syscall_pause_p90_us", pauses.percentile(0.90) / 1e3,
                      "us", pauses.count());
        report.metric("program_s", median(instr_s), "s", rounds.size());
        report.metric("slowdown_x",
                      median(perRound(rounds, [](const Round &r) {
                          return r.instr_ns / r.plain_ns;
                      })),
                      "ratio", rounds.size());
        return;
    }

    // --- Traced run: ledger over the captured streams, then roll-up.
    LedgerSpec spec;
    for (std::size_t p = 0; p < kNumProfiles; ++p)
        spec.procs.push_back(LedgerProc{captured_pid[p], {}, captured[p]});
    spec.batch = 1;
    spec.format = WireFormat::V1;
    spec.channel_kind = ChannelKind::UarchModel;
    spec.ring_slots = kChannelSlots;
    spec.make_policy = [] { return std::make_shared<PointerIntegrityPolicy>(); };
    spec.vconfig = programVerifierConfig();
    spec.sysno = kSysno;
    spec.seconds = o.seconds * 0.3;
    const LedgerResult ledger = runLedger(spec, report, tracer.thread());

    const double wait_frac =
        send_ns == 0
            ? 0.0
            : std::max(0.0, static_cast<double>(send_ns) -
                                static_cast<double>(sends) * ledger.send_ns) /
                  static_cast<double>(send_ns);
    const std::uint64_t n_backlog = backlog.size();
    const double backlog_p50 = percentile(backlog, 0.50);
    const double backlog_p99 = percentile(backlog, 0.99);
    std::uint64_t syscalls = 0, waits = 0;
    for (const Round &r : rounds) {
        syscalls += r.syscalls;
        waits += r.waits;
    }
    const double live_rate = median(perRound(rounds, [](const Round &r) {
        return static_cast<double>(r.messages) / (r.instr_ns / 1e9);
    }));
    const double program0 = median(instr_s);
    const double program1 = median(perRound(traced, [](const Round &r) {
        return r.instr_ns / 1e9;
    }));

    report.metric("ipc.ring_ns_per_msg", ledger.ring_ns, "ns/msg",
                  ledger.reps);
    report.metric("ipc.send_ns_per_msg", ledger.send_ns, "ns/msg",
                  ledger.reps);
    report.metric("ipc.send_wait_frac", wait_frac, "frac", sends);
    report.metric("ipc.frame_decode_ns_per_msg", ledger.decode_ns, "ns/msg",
                  ledger.reps);
    report.metric("policy.probe_ns_per_msg", ledger.probe_ns, "ns/msg",
                  ledger.reps);
    report.metric("policy.table_entries",
                  static_cast<double>(r0.table_entries), "count", 1);
    report.metric("verifier.poll_ns_per_msg", ledger.poll_ns, "ns/msg",
                  ledger.reps);
    report.metric("verifier.self_ns_per_msg",
                  ledger.poll_ns - ledger.decode_ns - ledger.probe_ns,
                  "ns/msg", ledger.reps);
    report.metric("verifier.shard_speedup_x", live_rate * ledger.poll_ns / 1e9,
                  "ratio", rounds.size());
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
    report.metric("runtime.vm_ns_per_instr",
                  median(perRound(rounds, [](const Round &r) {
                      return r.plain_ns /
                             static_cast<double>(r.plain_instructions);
                  })),
                  "ns/instr", rounds.size());
    report.metric("runtime.hq_ns_per_msg",
                  median(perRound(rounds, [](const Round &r) {
                      return (r.instr_ns - r.plain_ns) /
                             static_cast<double>(r.messages);
                  })),
                  "ns/msg", rounds.size());
    report.metric("runtime.msgs_per_kinstr", msgs_per_kinstr, "msg/kinstr",
                  1);
    report.metric("compiler.instrument_ms", median(instrument_ms), "ms",
                  instrument_ms.size());
    report.metric("telemetry.trace_overhead_frac",
                  program0 == 0.0 ? 0.0 : (program1 - program0) / program0,
                  "frac", rounds.size() + traced.size());

    std::filesystem::create_directories(o.out_dir);
    report.trace_file = o.out_dir + "/trace-" + o.workload + ".json";
    if (!tracer.writeChromeTrace(report.trace_file))
        report.trace_file.clear();
    report.layers_json = tracer.rollupJson();
}

} // namespace hqbench
