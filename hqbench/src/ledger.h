/**
 * @file
 * Per-layer cost ledger: replays a workload's own message stream
 * through one layer's public entry point at a time, on one thread, and
 * reports ns per message for each layer.
 */

#ifndef HQBENCH_LEDGER_H
#define HQBENCH_LEDGER_H

#include <functional>
#include <memory>
#include <vector>

#include "bench.h"
#include "ipc/channel.h"
#include "policy/policy.h"
#include "verifier/verifier.h"

namespace hqbench {

/** One monitored process's recorded traffic. */
struct LedgerProc
{
    hq::Pid pid = 0;
    /** State the stream relies on (working-set definitions). */
    std::vector<hq::Message> setup;
    /** The replayed stream; each message carries pid. */
    std::vector<hq::Message> stream;
};

struct LedgerSpec
{
    std::vector<LedgerProc> procs;
    /** Messages per send / ring batch, as the workload sends them. */
    std::size_t batch = 1;
    hq::WireFormat format = hq::WireFormat::V1;
    /** The workload's transport: AppendWrite-µarch model channel
     *  (program) or a raw shared-memory ring (stream, gate). */
    hq::ChannelKind channel_kind = hq::ChannelKind::SharedMemory;
    /** Ring slots of the live workload's channels (decode limits). */
    std::size_t ring_slots = 2048;
    std::function<std::shared_ptr<hq::Policy>()> make_policy;
    /** The workload's verifier settings (poll batch, CRC checks). */
    hq::Verifier::Config vconfig;
    /** A syscall number the strict gate never elides. */
    std::uint64_t sysno = 1;
    /** Wall-clock budget for all layers together. */
    double seconds = 1.0;
};

struct LedgerResult
{
    double ring_ns = 0;   //!< SpscRing push+pop
    double send_ns = 0;   //!< Channel::sendBatch / send
    /** Frame decode+unpack (v2) or per-slot CRC check (v1 with
     *  check_crc); 0 when the verifier does neither. */
    double decode_ns = 0;
    double probe_ns = 0;  //!< prefetchBatch + handleMessage
    double poll_ns = 0;   //!< Verifier::poll over a pre-filled channel
    double gate_ns = 0;   //!< send(Syscall) -> poll -> syscallEnter
    std::uint64_t reps = 0;
};

/**
 * Report each opcode's share of the given streams, per million
 * messages, as the counts mix_per_million.<OPCODE>.
 */
void reportMix(const std::vector<const std::vector<hq::Message> *> &streams,
               Report &report);

/**
 * Run every ledger layer. Wrong outcomes (a policy violation, a denied
 * syscall, a corrupt frame) are counted into report as failures.
 */
LedgerResult runLedger(const LedgerSpec &spec, Report &report,
                       ThreadTrace *trace);

} // namespace hqbench

#endif // HQBENCH_LEDGER_H
