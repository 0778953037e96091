//===- perfbench/Cell.h - one benchmark cell: compile, simulate, check --------==//
//
// A cell is one driver::compile of an app at a ladder level and ME count,
// followed by one or more FastForward simulations of that build under
// infinite offered load (one per traffic set), each followed by an output
// check: a finite window drained on a fresh simulator and compared, as a
// multiset, against reference-interpreter outputs computed in set-up.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CELL_H
#define PERFBENCH_CELL_H

#include "Spans.h"

#include "apps/Apps.h"
#include "driver/Compiler.h"
#include "ixp/Simulator.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One transmitted packet as the output check sees it: the frame bytes
/// followed by the values of the app's Tx metadata fields.
using OutKey = std::vector<uint8_t>;

/// One traffic set of one app in one pass, with everything set-up
/// derives from it.
struct TrafficSet {
  std::string Name; ///< Profile name ("npf", "zipf", ...).
  std::vector<sl::ixp::SimPacket> Offered; ///< Cycled under infinite load.
  sl::profile::Trace Window; ///< Check window (prefix of Offered).
  std::vector<OutKey> Reference; ///< Sorted interpreter outputs.
};

/// Set-up products for one app in one pass.
struct AppInputs {
  const sl::apps::AppBundle *App = nullptr;
  sl::profile::Trace ProfTrace; ///< Drives the Functional Profiler.
  std::vector<TrafficSet> Sets;
  uint64_t GenNs = 0; ///< CPU time spent generating traces.
};

/// The offered traffic of \p App for one pass: its own NPF-like trace
/// when \p Profile is null, else the adversarial profile's trace.
sl::profile::Trace trafficTrace(const sl::apps::AppBundle &App,
                                const sl::traffic::Profile *Profile,
                                uint64_t Seed, unsigned Len);

/// Builds the traces and reference outputs of one app for one pass,
/// recording `traffic.gen` and `reference` spans under \p Parent.
/// \p Profiles empty means the app's own NPF-like trace (one set named
/// "npf"). Returns false with \p Err set when the reference interpreter
/// fails.
bool makeInputs(const sl::apps::AppBundle &App,
                const std::vector<sl::traffic::Profile> &Profiles,
                uint64_t Seed, unsigned TrafficLen, unsigned WindowLen,
                SpanLog &Log, uint64_t Parent, AppInputs &In,
                std::string &Err);

struct SimParams {
  uint64_t WarmupCycles = 0;
  uint64_t MeasureCycles = 0;
};

/// Simulated results of one traffic set on one build (deterministic per
/// seed), plus the host CPU time it took.
struct SimResult {
  std::string Label;
  // Measured window.
  uint64_t Cycles = 0, Injected = 0, TxPackets = 0, TxBytes = 0;
  double Gbps = 0.0;
  uint64_t LatP50 = 0, LatP99 = 0, LatSamples = 0;
  uint64_t Instrs = 0;
  uint64_t Accesses[3] = {};
  uint64_t ServiceCycles[3] = {}, WaitCycles[3] = {}, UnitAccesses[3] = {},
           Banks[3] = {};
  uint64_t MeBusy = 0, MeMemStall = 0, MeRingWait = 0, MeThreadCycles = 0;
  uint64_t RingFullStalls = 0, RingWaitCycles = 0;
  uint64_t Drops[sl::ixp::NumDropReasons] = {};
  // Output checks. The strict check (one thread per ME) decides `correct`
  // and failed packets; the check of the measured build at its own thread
  // count is reported on its own (check.measured_mismatched).
  uint64_t CheckPackets = 0, Mismatched = 0;
  uint64_t MeasuredCheckPackets = 0, MeasuredMismatched = 0;
  bool LedgerOk = true;
  std::string LedgerLog;
  // Host CPU time.
  double WarmupMs = 0.0, MeasureMs = 0.0, MakeSimMs = 0.0, CheckMs = 0.0;
  uint64_t SimTxPackets = 0; ///< Warm-up plus window, for sim_kpkts_per_s.

  uint64_t refused() const;
  uint64_t failed() const { return refused() + Mismatched; }
  uint64_t offered() const { return Injected + CheckPackets; }
  /// Every simulated number, rendered exactly, for equality checks.
  std::string simKey() const;
};

/// One compile and its simulations.
struct CellResult {
  std::string Label;
  double CompileMs = 0.0; ///< Host CPU time of driver::compile.
  // Compile facts (deterministic; independent of the observer).
  uint64_t ImageHash = 0; ///< Fingerprint of every loadable image.
  unsigned Aggregates = 0, MeCopies = 0, NNChannels = 0, PlanAttempts = 0;
  uint64_t CodeSlots = 0;
  double WcetCyclesPerPkt = 0.0;
  uint64_t Findings = 0;
  // Observer-derived (traced run only).
  std::map<std::string, uint64_t> PhaseUs; ///< Summed over attempts.
  uint64_t IrInstrsLowered = 0, IrInstrsOut = 0, FixpointRounds = 0;
  std::map<std::string, uint64_t> Fired, Missed; ///< Remarks per pass.
  std::vector<SimResult> Sims;

  std::string simKey() const;
};

struct CellSpec {
  const AppInputs *In = nullptr;
  sl::driver::OptLevel Level = sl::driver::OptLevel::Swc;
  unsigned MEs = 6;
  /// Order-dependent (stateful) apps: the single-copy build
  /// (apps::compileSingleCopy) that the output check drains instead of the
  /// measured build, and that runs the apps::simConservation drop ledger.
  /// Null for the order-independent apps.
  const sl::driver::CompiledApp *SingleCopy = nullptr;
};

/// Runs one cell. Returns false with \p Err set when the compile fails;
/// output mismatches and ledger failures are reported in the result.
bool runCell(const CellSpec &C, const SimParams &P, SpanLog &Log,
             CellResult &R, std::string &Err);

} // namespace perfbench

#endif // PERFBENCH_CELL_H
