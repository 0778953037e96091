//===- perfbench/main.cpp - end-to-end benchmark of the Baker -> IXP2400 pipeline ==//
//
//   perfbench --workload <ladder|forward|stateful> --seed <n>
//             --seconds <s> --trace <0|1> [--revision <text>]
//             [--trace-out <file>]
//
// Drives the public entry points (driver::compile, driver::makeSimulator,
// ixp::Simulator::run / telemetry, interp::Interpreter) from one process
// on one host thread. A run repeats passes until --seconds is spent; each
// pass first sets up fresh traces and reference outputs from the seed,
// then runs the workload's cells (the timed phase). Simulated metrics are
// taken over the first MinPasses passes, so they are exact functions of
// the seed; host times are CPU times, from the best pass of the run (set-up:
// the median pass). Pass 0 is replayed at the end, and any cell that loads
// the same code but simulates differently fails the run.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends half the time
// untraced, then replays the same passes with spans and the compile
// observer attached, compares them the same way, and reports the host
// times of the timed phase and the per-layer metrics. The last stdout line
// is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//===----------------------------------------------------------------------===//

#include "Cell.h"
#include "Spans.h"

#include "apps/Apps.h"
#include "traffic/Traffic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace perfbench;
using namespace sl;

namespace {

struct Workload {
  std::string Name;
  std::vector<apps::AppBundle> Apps;
  std::vector<driver::OptLevel> Levels;
  std::vector<unsigned> MEs;
  std::vector<traffic::Profile> Profiles; ///< Empty: the apps' NPF traces.
  unsigned TrafficLen = 512;
  unsigned WindowLen = 64;
  SimParams Sim;
  /// Stateful tier: the output check drains the single-copy build, made
  /// once per run, which also runs the drop ledger; the app oracles run
  /// once per run.
  bool Ledger = false;
};

/// Passes every run makes; simulated metrics are taken over these.
constexpr unsigned MinPasses = 20;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
bool makeWorkload(const std::string &Name, Workload &W) {
  W.Name = Name;
  if (Name == "ladder") {
    W.Apps = apps::allApps();
    W.Levels = {driver::OptLevel::Base, driver::OptLevel::O1,
                driver::OptLevel::O2,   driver::OptLevel::Pac,
                driver::OptLevel::Soar, driver::OptLevel::Phr,
                driver::OptLevel::Swc};
    W.MEs = {1, 6};
    W.TrafficLen = 512;
    W.WindowLen = 16;
    W.Sim = {10'000, 50'000};
    return true;
  }
  if (Name == "forward") {
    W.Apps = apps::allApps();
    W.Levels = {driver::OptLevel::Swc};
    W.MEs = {6};
    W.TrafficLen = 1024;
    W.WindowLen = 64;
    W.Sim = {200'000, 5'000'000};
    return true;
  }
  if (Name == "stateful") {
    W.Apps = apps::statefulApps();
    W.Levels = {driver::OptLevel::Swc};
    W.MEs = {4};
    W.Profiles = traffic::allProfiles();
    W.TrafficLen = 1024;
    W.WindowLen = 128;
    W.Sim = {100'000, 400'000};
    W.Ledger = true;
    return true;
  }
  return false;
}

uint64_t splitmix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Every pass draws fresh traces, so no pass can reuse another's work.
uint64_t passSeed(uint64_t Seed, unsigned Pass) {
  return splitmix(splitmix(Seed) + Pass);
}

struct PassResult {
  double RunS = 0.0;   ///< CPU time of the timed phase.
  double WallS = 0.0;  ///< Wall time of the timed phase (span shares).
  double SetupS = 0.0; ///< CPU time of the traces plus reference outputs.
  double GenMs = 0.0;  ///< Trace generation part of set-up.
  std::vector<CellResult> Cells;
};

/// \p SingleCopy holds one build per app of a Ledger workload, else
/// nothing.
bool runPass(const Workload &W,
             const std::vector<std::unique_ptr<driver::CompiledApp>>
                 &SingleCopy,
             uint64_t Seed, unsigned Pass, SpanLog &Log, PassResult &R,
             std::string &Err) {
  uint64_t PS = passSeed(Seed, Pass);
  std::vector<AppInputs> Inputs(W.Apps.size());
  {
    SpanScope Setup(Log, "setup", 0, 0);
    int64_t S0 = cpuNs();
    for (size_t I = 0; I != W.Apps.size(); ++I) {
      if (!makeInputs(W.Apps[I], W.Profiles, PS, W.TrafficLen, W.WindowLen,
                      Log, Setup.id(), Inputs[I], Err))
        return false;
      R.GenMs += double(Inputs[I].GenNs) / 1e6;
    }
    R.SetupS = double(cpuNs() - S0) / 1e9;
  }
  int64_t W0 = nowNs(), C0 = cpuNs();
  for (size_t I = 0; I != Inputs.size(); ++I)
    for (driver::OptLevel L : W.Levels)
      for (unsigned M : W.MEs) {
        CellSpec C;
        C.In = &Inputs[I];
        C.Level = L;
        C.MEs = M;
        C.SingleCopy = SingleCopy.empty() ? nullptr : SingleCopy[I].get();
        CellResult CR;
        if (!runCell(C, W.Sim, Log, CR, Err))
          return false;
        R.Cells.push_back(std::move(CR));
      }
  R.RunS = double(cpuNs() - C0) / 1e9;
  R.WallS = double(nowNs() - W0) / 1e9;
  return true;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Linear-interpolated quantile of \p V.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double L = 0.0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / double(V.size()));
}

double ratio(double Num, double Den) { return Den != 0.0 ? Num / Den : 0.0; }

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  const char *Kind = "host"; ///< "sim" (exact per seed) or "host".
  const char *Better = "lower";
};

void printMetric(const Metric &M) {
  std::printf("metric %-34s %16.6f %-12s %-4s %s\n", M.Name.c_str(), M.Value,
              M.Unit.c_str(), M.Kind, M.Better);
}

void forEachSim(const std::vector<PassResult> &Passes, size_t Count,
                const std::function<void(const SimResult &)> &F) {
  for (size_t P = 0; P != std::min(Count, Passes.size()); ++P)
    for (const CellResult &C : Passes[P].Cells)
      for (const SimResult &S : C.Sims)
        F(S);
}

/// The simulated results, exact per seed, plus set-up time (the median
/// pass) and memory.
std::vector<Metric> endToEnd(const std::vector<PassResult> &Passes) {
  std::vector<double> Gbps, P50, P99, Setup;
  forEachSim(Passes, MinPasses, [&](const SimResult &S) {
    Gbps.push_back(S.Gbps);
    P50.push_back(double(S.LatP50));
    P99.push_back(double(S.LatP99));
  });
  for (const PassResult &P : Passes)
    Setup.push_back(P.SetupS);
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return {
      {"fwd_gbps", geomean(Gbps), "Gbps", "sim", "higher"},
      {"latency_p50_cycles", geomean(P50), "cycles", "sim", "lower"},
      {"latency_p99_cycles", geomean(P99), "cycles", "sim", "lower"},
      {"setup_s", median(Setup), "s", "host", "lower"},
      {"peak_rss_mb", double(RU.ru_maxrss) / 1024.0, "MB", "host", "lower"},
  };
}

/// Window packets whose output from the measured build, drained at its own
/// thread count, differs from the reference, over the first MinPasses
/// passes. Not failed packets: this is the known L3-Switch +SWC defect at
/// eight threads per ME, and the strict check decides `correct`.
double measuredMismatched(const std::vector<PassResult> &Passes) {
  double N = 0.0;
  forEachSim(Passes, MinPasses,
             [&](const SimResult &S) { N += double(S.MeasuredMismatched); });
  return N;
}

/// Host CPU times of the timed phase. Each is the best pass of the run:
/// other tenants of a shared host still slow it in bursts (through caches
/// and memory bandwidth), and the fastest pass is the undisturbed cost.
/// Bursts can last a whole run, which moved even the best pass by up to
/// 50% between runs, so these are reported with the per-layer metrics
/// rather than bounded. Compile percentiles are taken across cells.
std::vector<Metric> hostTimes(const std::vector<PassResult> &Passes) {
  std::vector<double> Compile, SimRate, Run;
  for (size_t C = 0; C != Passes.front().Cells.size(); ++C) {
    std::vector<double> Ms;
    for (const PassResult &P : Passes)
      Ms.push_back(P.Cells[C].CompileMs);
    Compile.push_back(*std::min_element(Ms.begin(), Ms.end()));
  }
  for (const PassResult &P : Passes) {
    double TxPkts = 0.0, SimMs = 0.0;
    for (const CellResult &C : P.Cells)
      for (const SimResult &S : C.Sims) {
        TxPkts += double(S.SimTxPackets);
        SimMs += S.WarmupMs + S.MeasureMs;
      }
    SimRate.push_back(ratio(TxPkts, SimMs));
    Run.push_back(P.RunS);
  }
  return {
      {"compile_ms_p50", quantile(Compile, 0.5), "ms", "host", "lower"},
      {"compile_ms_p90", quantile(Compile, 0.9), "ms", "host", "lower"},
      {"sim_kpkts_per_s", *std::max_element(SimRate.begin(), SimRate.end()),
       "kpkt/s", "host", "higher"},
      {"run_s", *std::min_element(Run.begin(), Run.end()), "s", "host",
       "lower"},
  };
}

/// Layer of each span name, for the per-layer self times.
const char *layerOf(const std::string &Span) {
  static const std::pair<const char *, const char *> Table[] = {
      {"cell", "bench"},
      {"compile", "driver"},
      {"make_sim", "driver"},
      {"parse", "baker"},
      {"ir-lower", "ir"},
      {"verify", "ir"},
      {"profile", "profile"},
      {"aggregate-formation", "map"},
      {"placement", "map"},
      {"inline", "opt"},
      {"o1", "opt"},
      {"o2", "opt"},
      {"phr-cleanup", "opt"},
      {"phr", "pktopt"},
      {"pac", "pktopt"},
      {"soar", "pktopt"},
      {"swc", "pktopt"},
      {"pkt-lifetime", "analysis"},
      {"state-race", "analysis"},
      {"header-bounds", "analysis"},
      {"meir-validate", "analysis"},
      {"memory-map", "rts"},
      {"codegen", "cg"},
      {"sim.warmup", "ixp"},
      {"sim.measure", "ixp"},
      {"check", "interp"},
      {"setup", "setup"},
      {"reference", "setup"},
      {"traffic.gen", "traffic"},
  };
  for (const auto &[Name, Layer] : Table)
    if (Span == Name)
      return Layer;
  return "other";
}

const char *const SelfLayers[] = {"bench",    "driver", "baker",  "ir",
                                  "profile",  "map",    "opt",    "pktopt",
                                  "analysis", "rts",    "cg",     "ixp",
                                  "interp",   "setup",  "traffic", "other"};

std::vector<Metric> perLayer(const Workload &W,
                             const std::vector<PassResult> &Untraced,
                             const std::vector<PassResult> &Traced,
                             const SpanLog &Log) {
  std::vector<Metric> Out;
  auto add = [&](std::string Name, double V, const char *Unit,
                 const char *Kind) {
    Out.push_back({std::move(Name), V, Unit, Kind, ""});
  };
  // Phase times: median over the traced compiles that ran the phase.
  auto phaseUs = [&](const char *Phase) {
    std::vector<double> V;
    for (const PassResult &P : Traced)
      for (const CellResult &C : P.Cells) {
        auto It = C.PhaseUs.find(Phase);
        if (It != C.PhaseUs.end())
          V.push_back(double(It->second));
      }
    return median(V);
  };
  // Counts: mean per cell (or per simulation) over the first pass.
  auto perCell = [&](const std::function<double(const CellResult &)> &F) {
    double Sum = 0.0;
    for (const CellResult &C : Traced.front().Cells)
      Sum += F(C);
    return ratio(Sum, double(Traced.front().Cells.size()));
  };
  auto perSim = [&](const std::function<double(const SimResult &)> &F) {
    double Sum = 0.0, N = 0.0;
    forEachSim(Traced, 1, [&](const SimResult &S) {
      Sum += F(S);
      N += 1.0;
    });
    return ratio(Sum, N);
  };

  add("baker.parse_us", phaseUs("parse"), "us", "host");
  add("ir.lower_us", phaseUs("ir-lower"), "us", "host");
  add("ir.instrs", perCell([](auto &C) { return double(C.IrInstrsLowered); }),
      "count", "sim");
  add("profile.us", phaseUs("profile"), "us", "host");
  add("map.formation_us", phaseUs("aggregate-formation"), "us", "host");
  add("map.placement_us", phaseUs("placement"), "us", "host");
  add("map.aggregates", perCell([](auto &C) { return double(C.Aggregates); }),
      "count", "sim");
  add("map.me_copies", perCell([](auto &C) { return double(C.MeCopies); }),
      "count", "sim");
  add("map.nn_channels", perCell([](auto &C) { return double(C.NNChannels); }),
      "count", "sim");
  add("map.plan_attempts",
      perCell([](auto &C) { return double(C.PlanAttempts); }), "count", "sim");
  add("opt.inline_us", phaseUs("inline"), "us", "host");
  add("opt.o1_us", phaseUs("o1"), "us", "host");
  add("opt.o2_us", phaseUs("o2"), "us", "host");
  add("opt.fixpoint_rounds",
      perCell([](auto &C) { return double(C.FixpointRounds); }), "count",
      "sim");
  add("opt.ir_instrs_out",
      perCell([](auto &C) { return double(C.IrInstrsOut); }), "count", "sim");
  for (const char *P : {"phr", "pac", "soar", "swc"}) {
    std::string Pass = P;
    add("pktopt." + Pass + "_us", phaseUs(P), "us", "host");
    add("pktopt." + Pass + ".fired", perCell([&](const CellResult &C) {
          auto It = C.Fired.find(Pass);
          return It == C.Fired.end() ? 0.0 : double(It->second);
        }),
        "count", "sim");
    add("pktopt." + Pass + ".missed", perCell([&](const CellResult &C) {
          auto It = C.Missed.find(Pass);
          return It == C.Missed.end() ? 0.0 : double(It->second);
        }),
        "count", "sim");
  }
  add("analysis.pkt_lifetime_us", phaseUs("pkt-lifetime"), "us", "host");
  add("analysis.state_race_us", phaseUs("state-race"), "us", "host");
  add("analysis.header_bounds_us", phaseUs("header-bounds"), "us", "host");
  add("analysis.meir_validate_us", phaseUs("meir-validate"), "us", "host");
  add("analysis.findings", perCell([](auto &C) { return double(C.Findings); }),
      "count", "sim");
  add("cg.codegen_us", phaseUs("codegen"), "us", "host");
  add("cg.code_slots", perCell([](auto &C) { return double(C.CodeSlots); }),
      "count", "sim");
  add("cg.instrs_per_pkt", perSim([](auto &S) {
        return ratio(double(S.Instrs), double(S.Injected));
      }),
      "instrs/pkt", "sim");
  add("cg.wcet_cycles_per_pkt",
      perCell([](auto &C) { return C.WcetCyclesPerPkt; }), "cycles/pkt",
      "sim");

  std::vector<double> CompileMs, MakeSimMs, RunMs, CheckMs, GenMs, Run;
  double SimNs = 0.0, SimPkts = 0.0, SimKCycles = 0.0, WallNs = 0.0;
  for (const PassResult &P : Traced) {
    GenMs.push_back(P.GenMs);
    Run.push_back(P.RunS);
    WallNs += P.WallS * 1e9;
    for (const CellResult &C : P.Cells) {
      CompileMs.push_back(C.CompileMs);
      for (const SimResult &S : C.Sims) {
        MakeSimMs.push_back(S.MakeSimMs);
        RunMs.push_back(S.WarmupMs + S.MeasureMs);
        CheckMs.push_back(S.CheckMs);
        SimNs += (S.WarmupMs + S.MeasureMs) * 1e6;
        SimPkts += double(S.SimTxPackets);
        SimKCycles += double(W.Sim.WarmupCycles + W.Sim.MeasureCycles) / 1e3;
      }
    }
  }
  add("driver.compile_ms", median(CompileMs), "ms", "host");
  add("driver.make_sim_ms", median(MakeSimMs), "ms", "host");

  static const char *const Space[3] = {"scratch", "sram", "dram"};
  for (unsigned Sp = 0; Sp != 3; ++Sp) {
    std::string Pre = std::string("ixp.") + Space[Sp];
    add(Pre + ".accesses_per_pkt", perSim([Sp](const SimResult &S) {
          return ratio(double(S.Accesses[Sp]), double(S.Injected));
        }),
        "accesses/pkt", "sim");
    add(Pre + ".saturation", perSim([Sp](const SimResult &S) {
          return ratio(double(S.ServiceCycles[Sp]),
                       double(S.Cycles) * double(S.Banks[Sp]));
        }),
        "share", "sim");
    if (Sp != 0)
      add(Pre + ".avg_wait_cycles", perSim([Sp](const SimResult &S) {
            return ratio(double(S.WaitCycles[Sp]), double(S.UnitAccesses[Sp]));
          }),
          "cycles", "sim");
  }
  auto meShare = [&](const char *Name, uint64_t SimResult::*Field) {
    add(std::string("ixp.me.") + Name + "_share",
        perSim([Field](const SimResult &S) {
          return ratio(double(S.*Field), double(S.MeThreadCycles));
        }),
        "share", "sim");
  };
  meShare("busy", &SimResult::MeBusy);
  meShare("mem_stall", &SimResult::MeMemStall);
  meShare("ring_wait", &SimResult::MeRingWait);
  add("ixp.me.idle_share", perSim([](const SimResult &S) {
        return 1.0 - ratio(double(S.MeBusy + S.MeMemStall + S.MeRingWait),
                           double(S.MeThreadCycles));
      }),
      "share", "sim");
  add("ixp.ring.full_stalls",
      perSim([](auto &S) { return double(S.RingFullStalls); }), "count",
      "sim");
  add("ixp.ring.wait_cycles",
      perSim([](auto &S) { return double(S.RingWaitCycles); }), "cycles",
      "sim");
  static const char *const Drop[ixp::NumDropReasons] = {
      "ring_full", "budget_reject", "app_drop", "malformed"};
  for (unsigned R = 0; R != ixp::NumDropReasons; ++R)
    add(std::string("ixp.drops.") + Drop[R],
        perSim([R](const SimResult &S) { return double(S.Drops[R]); }),
        "count", "sim");
  add("ixp.run_ms", median(RunMs), "ms", "host");
  add("ixp.host_ns_per_pkt", ratio(SimNs, SimPkts), "ns/pkt", "host");
  add("ixp.host_ns_per_kcycle", ratio(SimNs, SimKCycles), "ns/kcycle",
      "host");
  add("interp.check_ms", median(CheckMs), "ms", "host");
  add("check.measured_mismatched", measuredMismatched(Untraced), "count",
      "sim");
  add("traffic.gen_ms", median(GenMs), "ms", "host");

  // Self time per layer, per pass, and the layer split, from the spans'
  // wall times; then the cost of tracing itself, in CPU time like run_s.
  std::map<std::string, double> SelfMs;
  for (const auto &[Name, Ns] : Log.selfNsByName())
    SelfMs[layerOf(Name)] += double(Ns) / 1e6;
  double NPasses = double(Traced.size());
  for (const char *L : SelfLayers)
    add(std::string(L) + ".self_ms", SelfMs[L] / NPasses, "ms", "host");
  std::map<std::string, int64_t> Total = Log.totalNsByName();
  add("split.compile_share", ratio(double(Total["compile"]), WallNs),
      "share", "host");
  add("split.sim_share",
      ratio(double(Total["sim.warmup"] + Total["sim.measure"]), WallNs),
      "share", "host");
  double UBest = Untraced.front().RunS;
  for (const PassResult &P : Untraced)
    UBest = std::min(UBest, P.RunS);
  add("trace.overhead_s", *std::min_element(Run.begin(), Run.end()) - UBest,
      "s", "host");
  return Out;
}

/// Compares two runs of the same passes cell by cell and returns the
/// number of cells whose simulated numbers differ. A cell whose images
/// differ too is the compiler's known non-determinism: a second compile of
/// the same input sometimes yields other code. It is reported as a WARN.
/// A cell that loaded the same code and still simulated differently is a
/// FAIL, counted in \p Failures.
size_t compareRuns(const std::vector<PassResult> &A,
                   const std::vector<PassResult> &B, const char *What,
                   size_t &Failures) {
  size_t Changed = 0;
  for (size_t P = 0; P != std::min(A.size(), B.size()); ++P)
    for (size_t C = 0; C != A[P].Cells.size(); ++C) {
      const CellResult &X = A[P].Cells[C], &Y = B[P].Cells[C];
      std::string KA = X.simKey(), KB = Y.simKey();
      if (KA == KB)
        continue;
      ++Changed;
      bool SameCode = X.ImageHash == Y.ImageHash;
      Failures += SameCode;
      size_t At = std::mismatch(KA.begin(), KA.end(), KB.begin(), KB.end())
                      .first - KA.begin();
      At = KA.rfind(':', At) == std::string::npos ? 0 : KA.rfind(':', At);
      std::printf("%s determinism: %s, pass %zu %s: %s\n  first  %s\n  "
                  "second %s\n",
                  SameCode ? "FAIL" : "WARN", What, P, X.Label.c_str(),
                  SameCode ? "same images, different simulation"
                           : "the compiler produced other images",
                  KA.substr(At).c_str(), KB.substr(At).c_str());
    }
  return Changed;
}

/// FNV-1a over the simulated numbers of one pass, printed so that two
/// processes can be compared.
uint64_t passFingerprint(const PassResult &P) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const CellResult &C : P.Cells)
    for (char Ch : C.simKey()) {
      H ^= static_cast<uint8_t>(Ch);
      H *= 0x100000001b3ull;
    }
  return H;
}

/// Scans every pass for output-check and ledger failures.
bool checksPass(const std::vector<PassResult> &Passes, const char *What) {
  bool Ok = true;
  for (size_t P = 0; P != Passes.size(); ++P)
    for (const CellResult &C : Passes[P].Cells)
      for (const SimResult &S : C.Sims) {
        if (S.Mismatched)
          std::printf("FAIL %s pass %zu %s: %llu of %llu window packets "
                      "differ from the reference\n",
                      What, P, S.Label.c_str(),
                      static_cast<unsigned long long>(S.Mismatched),
                      static_cast<unsigned long long>(S.CheckPackets));
        if (!S.LedgerOk)
          std::printf("FAIL %s pass %zu %s: drop ledger: %s\n", What, P,
                      S.Label.c_str(), S.LedgerLog.c_str());
        Ok = Ok && !S.Mismatched && S.LedgerOk;
      }
  return Ok;
}

void printJsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  std::printf("%.17g", V);
}

const char *argValue(int Argc, char **Argv, const char *Flag) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return Argv[I + 1];
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *WName = argValue(Argc, Argv, "--workload");
  const char *SeedArg = argValue(Argc, Argv, "--seed");
  const char *SecArg = argValue(Argc, Argv, "--seconds");
  const char *TraceArg = argValue(Argc, Argv, "--trace");
  const char *Rev = argValue(Argc, Argv, "--revision");
  const char *TraceOut = argValue(Argc, Argv, "--trace-out");
  Workload W;
  if (!WName || !SeedArg || !SecArg || !TraceArg ||
      !makeWorkload(WName, W)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ladder|forward|stateful> "
                 "--seed <n> --seconds <s> --trace <0|1> [--revision <text>] "
                 "[--trace-out <file>]\n");
    return 2;
  }
  uint64_t Seed = std::strtoull(SeedArg, nullptr, 0);
  double Seconds = std::strtod(SecArg, nullptr);
  bool Trace = std::strcmp(TraceArg, "1") == 0;

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              W.Name.c_str(), static_cast<unsigned long long>(Seed),
              Seconds, Trace ? 1 : 0);
  std::printf("# host nproc=%ld build=%s (assertions on: this repository "
              "never defines NDEBUG) compiler=%s exec=fast revision=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, Rev ? Rev : "unknown");
  std::printf("# load: one process, one host thread, closed loop under "
              "infinite offered load (rx ring of 128 refilled whenever it "
              "has room)\n");

  // The seed must reach the generators: another seed, other traces.
  {
    const traffic::Profile *P =
        W.Profiles.empty() ? nullptr : &W.Profiles[0];
    uint64_t A = traffic::traceFingerprint(
        trafficTrace(W.Apps[0], P, passSeed(Seed, 0), W.TrafficLen));
    uint64_t B = traffic::traceFingerprint(
        trafficTrace(W.Apps[0], P, passSeed(Seed + 1, 0), W.TrafficLen));
    std::printf("determinism: trace fingerprint seed %llu = %016llx, seed "
                "%llu = %016llx  %s\n",
                static_cast<unsigned long long>(Seed),
                static_cast<unsigned long long>(A),
                static_cast<unsigned long long>(Seed + 1),
                static_cast<unsigned long long>(B), A != B ? "ok" : "FAIL");
    if (A == B)
      return 3;
  }

  bool Correct = true;
  if (W.Ledger) {
    for (auto Oracle : {apps::natOracle, apps::slbOracle,
                        apps::synfloodOracle}) {
      apps::OracleResult O = Oracle(Seed);
      std::printf("oracle %s  %s\n", O.Ok ? "ok" : "FAIL", O.Log.c_str());
      Correct = Correct && O.Ok;
    }
  }

  // The single-copy builds do not depend on the seed (fixed options and
  // profiling trace), so they are made once, outside every measured phase.
  std::string Err;
  std::vector<std::unique_ptr<driver::CompiledApp>> SingleCopy;
  if (W.Ledger)
    for (const apps::AppBundle &App : W.Apps) {
      SingleCopy.push_back(apps::compileSingleCopy(App, Err));
      if (!SingleCopy.back()) {
        std::fprintf(stderr,
                     "perfbench: %s: single-copy compile failed:\n%s\n",
                     App.Name.c_str(), Err.c_str());
        return 3;
      }
    }
  auto pass = [&](unsigned P, SpanLog &Log, std::vector<PassResult> &Out) {
    PassResult R;
    if (!runPass(W, SingleCopy, Seed, P, Log, R, Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return false;
    }
    Out.push_back(std::move(R));
    return true;
  };

  // One more pass than the loop makes is left for the replay of pass 0.
  SpanLog Off(false);
  std::vector<PassResult> Untraced;
  double Budget = Trace ? Seconds / 2 : Seconds;
  int64_t Start = nowNs();
  for (;;) {
    double Elapsed = double(nowNs() - Start) / 1e9;
    double PerPass =
        Untraced.empty() ? 0.0 : Elapsed / double(Untraced.size());
    if (Untraced.size() >= MinPasses && Elapsed + 2 * PerPass > Budget)
      break;
    if (!pass(static_cast<unsigned>(Untraced.size()), Off, Untraced))
      return 3;
  }
  Correct = checksPass(Untraced, "untraced") && Correct;

  // Same seed, same pass: every simulated number must repeat exactly. The
  // replay runs after all other passes, on a heap laid out differently.
  std::vector<PassResult> Replay;
  if (!pass(0, Off, Replay))
    return 3;
  size_t DetFailures = 0;
  size_t ChangedCells =
      compareRuns(Untraced, Replay, "pass 0 replayed", DetFailures);
  std::printf("determinism: pass 0 fingerprint %016llx, replayed %016llx\n",
              static_cast<unsigned long long>(passFingerprint(Untraced[0])),
              static_cast<unsigned long long>(passFingerprint(Replay[0])));

  std::vector<PassResult> Traced;
  SpanLog On(true);
  if (Trace) {
    for (unsigned P = 0; P != Untraced.size(); ++P)
      if (!pass(P, On, Traced))
        return 3;
    Correct = checksPass(Traced, "traced") && Correct;
    // Tracing and the compile observer are observation-only.
    ChangedCells += compareRuns(Untraced, Traced, "untraced vs traced",
                                DetFailures);
  }
  std::printf("determinism: %zu cells changed, %zu with the same images\n",
              ChangedCells, DetFailures);
  Correct = Correct && DetFailures == 0;
  if (Trace && TraceOut) {
    std::ofstream OS(TraceOut);
    if (OS)
      On.writeChromeTrace(OS);
    std::printf("spans: %zu -> %s\n", On.spans().size(),
                OS ? TraceOut : "(not written)");
  }

  // Per-cell rows of the passes the simulated metrics are taken over.
  uint64_t Attempted = 0, Failed = 0;
  for (size_t P = 0; P != Untraced.size(); ++P)
    for (const CellResult &C : Untraced[P].Cells)
      for (const SimResult &S : C.Sims) {
        Attempted += S.offered();
        Failed += S.failed();
        if (P >= MinPasses)
          continue;
        std::printf("cell pass=%zu %-30s gbps=%.4f p50=%llu p99=%llu "
                    "samples=%llu compile_ms=%.3f check=%llu/%llu",
                    P, S.Label.c_str(), S.Gbps,
                    static_cast<unsigned long long>(S.LatP50),
                    static_cast<unsigned long long>(S.LatP99),
                    static_cast<unsigned long long>(S.LatSamples),
                    C.CompileMs,
                    static_cast<unsigned long long>(S.CheckPackets -
                                                    S.Mismatched),
                    static_cast<unsigned long long>(S.CheckPackets));
        if (S.MeasuredCheckPackets)
          std::printf(" measured_check=%llu/%llu",
                      static_cast<unsigned long long>(S.MeasuredCheckPackets -
                                                      S.MeasuredMismatched),
                      static_cast<unsigned long long>(S.MeasuredCheckPackets));
        std::printf("%s\n", S.LedgerOk ? "" : " ledger=FAIL");
      }
  size_t Compiles = 0;
  for (const PassResult &P : Untraced)
    Compiles += P.Cells.size();
  std::printf("passes=%zu compiles=%zu (each cell's fastest compile enters "
              "the percentiles) failed_share=%.6g (%llu/%llu packets; sim) "
              "measured_mismatched=%.0f (first %u passes; sim)\n",
              Untraced.size(), Compiles,
              ratio(double(Failed), double(Attempted)),
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted),
              measuredMismatched(Untraced), MinPasses);

  std::vector<Metric> Out = endToEnd(Untraced);
  std::vector<Metric> Host = hostTimes(Untraced);
  for (const Metric &M : Out)
    printMetric(M);
  for (const Metric &M : Host)
    printMetric(M);
  if (Trace) {
    std::vector<Metric> Layers = perLayer(W, Untraced, Traced, On);
    Layers.push_back({"determinism.changed_cells", double(ChangedCells),
                      "count", "sim", ""});
    for (const Metric &M : Layers)
      printMetric(M);
    Out = Host;
    Out.insert(Out.end(), Layers.begin(), Layers.end());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Out.size(); ++I) {
    std::printf("%s\"%s\": {\"value\": ", I ? ", " : "", Out[I].Name.c_str());
    printJsonNumber(Out[I].Value);
    std::printf(", \"unit\": \"%s\"}", Out[I].Unit.c_str());
  }
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
