//===- perfbench/Cell.cpp -----------------------------------------------------==//

#include "Cell.h"

#include "interp/Bits.h"
#include "interp/Interp.h"
#include "obs/OptReport.h"
#include "support/Diagnostics.h"
#include "traffic/Traffic.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;
using namespace sl;

namespace {

/// Appends the Tx metadata field values to the frame bytes. A metadata
/// block too short for a field contributes a marker byte instead, so it
/// can never compare equal to a well-formed output.
OutKey outKey(const std::vector<uint8_t> &Frame,
              const std::vector<uint8_t> &Meta,
              const std::vector<baker::BitField> &Fields) {
  OutKey K = Frame;
  for (const baker::BitField &F : Fields) {
    if ((F.BitOff + F.Bits + 7) / 8 > Meta.size()) {
      K.push_back(0xEE);
      continue;
    }
    uint64_t V = interp::readBitsBE(Meta.data(), F.BitOff, F.Bits);
    for (unsigned B = 0; B != 8; ++B)
      K.push_back(static_cast<uint8_t>(V >> (8 * B)));
  }
  return K;
}

/// The BitFields of \p Names, looked up by \p Find (null when absent).
template <typename FindFn>
bool txFields(const std::vector<std::string> &Names, FindFn Find,
              std::vector<baker::BitField> &Out) {
  for (const std::string &N : Names) {
    const baker::BitField *F = Find(N);
    if (!F)
      return false;
    Out.push_back(*F);
  }
  return true;
}

/// Packets in \p A without a partner in \p B, or the reverse, whichever
/// is larger: one differing frame shows up once on each side.
uint64_t multisetMismatch(const std::vector<OutKey> &A,
                          const std::vector<OutKey> &B) {
  uint64_t OnlyA = 0, OnlyB = 0;
  size_t I = 0, J = 0;
  while (I != A.size() && J != B.size()) {
    if (A[I] == B[J]) {
      ++I;
      ++J;
    } else if (A[I] < B[J]) {
      ++OnlyA;
      ++I;
    } else {
      ++OnlyB;
      ++J;
    }
  }
  OnlyA += A.size() - I;
  OnlyB += B.size() - J;
  return std::max(OnlyA, OnlyB);
}

/// FNV-1a over what the simulator loads from every image, so two builds
/// hash equal exactly when they load the same code.
uint64_t imageHash(const driver::CompiledApp &B) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto mix = [&H](uint64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xFF;
      H *= 0x100000001b3ull;
    }
  };
  for (const driver::AggregateBinary &A : B.Images) {
    mix(A.Copies);
    mix(A.OnXScale);
    mix(A.Rings.size());
    for (unsigned R : A.Rings)
      mix(R);
    mix(A.Code.Code.size());
    for (const cg::MInstr &I : A.Code.Code)
      for (uint64_t V :
           {uint64_t(I.Op), uint64_t(I.Cond), uint64_t(I.Space),
            uint64_t(I.Class), uint64_t(I.Dst), uint64_t(I.SrcA),
            uint64_t(I.SrcB), uint64_t(I.Imm), uint64_t(I.Xfer),
            uint64_t(I.Words), uint64_t(I.Target), uint64_t(I.CamBase),
            uint64_t(I.CamSize), uint64_t(I.Ring), uint64_t(I.NNRing),
            uint64_t(I.LmFast), uint64_t(I.StackSlot), uint64_t(I.SlotWord),
            uint64_t(I.ThreadStack)})
        mix(V);
  }
  return H;
}

void appendU(std::string &S, uint64_t V) {
  S += std::to_string(V);
  S += ',';
}

void appendD(std::string &S, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%a,", V);
  S += Buf;
}

int64_t usToNs(uint64_t Us) { return static_cast<int64_t>(Us) * 1000; }

double msSince(int64_t T0, int64_t T1) { return double(T1 - T0) / 1e6; }

/// Drains the window of \p Set through \p Built at \p ThreadsPerME threads
/// per ME and counts the outputs that differ from the reference, as a
/// multiset. A window that does not drain counts as wholly wrong.
uint64_t drainMismatches(const driver::CompiledApp &Built,
                         unsigned ThreadsPerME, const apps::AppBundle &App,
                         const TrafficSet &Set) {
  size_t N = Set.Window.size();
  ixp::ChipParams Chip;
  Chip.ThreadsPerME = ThreadsPerME;
  auto Sim = driver::makeSimulator(Built, Chip);
  Sim->setExecMode(ixp::ExecMode::FastForward);
  Sim->setMaxInjected(N);
  Sim->enableCapture();
  const std::vector<ixp::SimPacket> &Offered = Set.Offered;
  Sim->setTraffic([&Offered, N](uint64_t I) -> const ixp::SimPacket * {
    return I < N ? &Offered[I] : nullptr;
  });
  Sim->run(50'000'000); // Stops as soon as the window drains.
  std::vector<baker::BitField> Fields;
  bool FieldsOk = txFields(
      App.TxMetaFields,
      [&](const std::string &Name) { return Built.metaField(Name); }, Fields);
  if (!Sim->drained() || !FieldsOk)
    return N;
  std::vector<OutKey> Got;
  for (const ixp::SimTxRecord &Tx : Sim->captured())
    Got.push_back(outKey(Tx.Frame, Tx.Meta, Fields));
  std::sort(Got.begin(), Got.end());
  return std::min<uint64_t>(N, multisetMismatch(Set.Reference, Got));
}

/// Simulates \p Built under \p Set and checks its outputs.
SimResult simulate(const driver::CompiledApp &Built, const CellSpec &C,
                   const TrafficSet &Set, const SimParams &P, SpanLog &Log,
                   uint64_t Parent, uint64_t Cell) {
  const apps::AppBundle &App = *C.In->App;
  SimResult S;
  S.Label = App.Name + " " + driver::optLevelName(C.Level) + "@" +
            std::to_string(C.MEs) + " " + Set.Name;
  ixp::ChipParams Chip;

  // Spans take wall time, the metrics CPU time.
  int64_t W0 = nowNs(), C0 = cpuNs();
  auto Sim = driver::makeSimulator(Built, Chip);
  Sim->setExecMode(ixp::ExecMode::FastForward);
  const std::vector<ixp::SimPacket> &Offered = Set.Offered;
  Sim->setTraffic([&Offered](uint64_t I) -> const ixp::SimPacket * {
    return &Offered[I % Offered.size()];
  });
  int64_t W1 = nowNs(), C1 = cpuNs();
  Log.add("make_sim", Parent, Cell, W0, W1);

  // Warm-up fills rings and caches; the window then starts from zeroed
  // counters (resetTelemetry leaves simulated state untouched).
  ixp::SimStats W = Sim->run(P.WarmupCycles);
  int64_t W2 = nowNs(), C2 = cpuNs();
  Log.add("sim.warmup", Parent, Cell, W1, W2);
  Sim->resetTelemetry();
  ixp::SimStats S0 = Sim->run(0);
  ixp::SimStats S1 = Sim->run(P.MeasureCycles);
  ixp::SimTelemetry T = Sim->telemetry();
  int64_t W3 = nowNs(), C3 = cpuNs();
  Log.add("sim.measure", Parent, Cell, W2, W3);
  S.MakeSimMs = msSince(C0, C1);
  S.WarmupMs = msSince(C1, C2);
  S.MeasureMs = msSince(C2, C3);
  S.SimTxPackets = W.TxPackets + S1.TxPackets;

  S.Cycles = S1.Cycles - S0.Cycles;
  S.Injected = S1.RxInjected - S0.RxInjected;
  S.TxPackets = S1.TxPackets;
  S.TxBytes = S1.TxBytes;
  S.Gbps = S.Cycles ? double(S.TxBytes) * 8.0 * Chip.ClockGHz /
                          double(S.Cycles)
                    : 0.0;
  S.LatP50 = T.Latency.Egress.quantile(0.50);
  S.LatP99 = T.Latency.Egress.quantile(0.99);
  S.LatSamples = T.Latency.Egress.count();
  S.Instrs = S1.Instrs;
  for (unsigned Sp = 0; Sp != 3; ++Sp) {
    for (unsigned K = 0; K != 7; ++K)
      S.Accesses[Sp] += S1.Accesses[Sp][K];
    S.ServiceCycles[Sp] = T.Units[Sp].ServiceCycles;
    S.WaitCycles[Sp] = T.Units[Sp].WaitCycles;
    S.UnitAccesses[Sp] = T.Units[Sp].Accesses;
    S.Banks[Sp] = T.Units[Sp].Banks;
  }
  for (const ixp::METelemetry &ME : T.MEs) {
    if (ME.XScale)
      continue;
    for (const ixp::ThreadTelemetry &Th : ME.Threads) {
      S.MeBusy += Th.Busy;
      S.MeMemStall += Th.MemStall;
      S.MeRingWait += Th.RingWait;
      S.MeThreadCycles += S.Cycles;
    }
  }
  for (const ixp::RingTelemetry &R : T.Rings) {
    S.RingFullStalls += R.FullStalls;
    S.RingWaitCycles += R.WaitCycles;
  }
  for (unsigned R = 0; R != ixp::NumDropReasons; ++R)
    S.Drops[R] = T.Drops.ByReason[R];

  // Output checks: drain the window on a fresh simulator and compare what
  // left Tx with the reference interpreter's outputs.
  //  - The strict check runs one thread per ME, so no ME interleaves two
  //    packets. It decides `correct`.
  //  - Order-independent apps also drain the measured build at its own
  //    thread count. With eight threads per ME, L3-Switch at +SWC drops a
  //    few routed packets per thousand that the reference forwards (only
  //    SWC cells do, so the per-ME software cache the threads share is the
  //    likely cause). Those are reported apart from failed packets, as a
  //    known defect of the program rather than of the run.
  //  - Order-dependent apps drain the single-copy build instead, since
  //    replicated copies reorder packets across MEs; the measured
  //    replicated build is not output-checked. The single-copy build also
  //    runs the drop ledger.
  SpanScope Check(Log, "check", Parent, Cell);
  int64_t C4 = cpuNs();
  S.CheckPackets = Set.Window.size();
  if (C.SingleCopy) {
    S.Mismatched = drainMismatches(*C.SingleCopy, 1, App, Set);
    apps::SimConservation L =
        apps::simConservation(*C.SingleCopy, App, Set.Window);
    S.LedgerOk = L.O.Ok;
    S.LedgerLog = L.O.Log;
  } else {
    S.Mismatched = drainMismatches(Built, 1, App, Set);
    S.MeasuredCheckPackets = S.CheckPackets;
    S.MeasuredMismatched =
        drainMismatches(Built, Chip.ThreadsPerME, App, Set);
  }
  S.CheckMs = msSince(C4, cpuNs());
  return S;
}

} // namespace

uint64_t SimResult::refused() const {
  return Drops[unsigned(ixp::DropReason::RingFull)] +
         Drops[unsigned(ixp::DropReason::BudgetReject)];
}

std::string SimResult::simKey() const {
  std::string K = Label + ':';
  for (uint64_t V : {Cycles, Injected, TxPackets, TxBytes, LatP50, LatP99,
                     LatSamples, Instrs, MeBusy, MeMemStall, MeRingWait,
                     MeThreadCycles, RingFullStalls, RingWaitCycles,
                     CheckPackets, Mismatched, MeasuredCheckPackets,
                     MeasuredMismatched, SimTxPackets})
    appendU(K, V);
  for (unsigned Sp = 0; Sp != 3; ++Sp)
    for (uint64_t V : {Accesses[Sp], ServiceCycles[Sp], WaitCycles[Sp],
                       UnitAccesses[Sp], Banks[Sp]})
      appendU(K, V);
  for (uint64_t V : Drops)
    appendU(K, V);
  appendD(K, Gbps);
  K += LedgerOk ? "ledger-ok;" : "ledger-fail;";
  return K;
}

std::string CellResult::simKey() const {
  std::string K = Label + ':';
  for (uint64_t V : {ImageHash, uint64_t(Aggregates), uint64_t(MeCopies),
                     uint64_t(NNChannels), uint64_t(PlanAttempts), CodeSlots,
                     Findings})
    appendU(K, V);
  appendD(K, WcetCyclesPerPkt);
  for (const SimResult &S : Sims)
    K += S.simKey();
  return K;
}

profile::Trace perfbench::trafficTrace(const apps::AppBundle &App,
                                      const traffic::Profile *Profile,
                                      uint64_t Seed, unsigned Len) {
  return Profile ? apps::adversarialTrace(App, *Profile, Seed, Len)
                 : App.makeTrace(Seed, Len);
}

bool perfbench::makeInputs(const apps::AppBundle &App,
                           const std::vector<traffic::Profile> &Profiles,
                           uint64_t Seed, unsigned TrafficLen,
                           unsigned WindowLen, SpanLog &Log, uint64_t Parent,
                           AppInputs &In, std::string &Err) {
  int64_t W0 = nowNs(), C0 = cpuNs();
  In.App = &App;
  In.ProfTrace = App.makeTrace(Seed ^ 0x9F0F11E5ull, 256);
  std::vector<std::pair<std::string, profile::Trace>> Traces;
  if (Profiles.empty())
    Traces.emplace_back("npf", trafficTrace(App, nullptr, Seed, TrafficLen));
  for (traffic::Profile P : Profiles)
    Traces.emplace_back(traffic::profileName(P),
                        trafficTrace(App, &P, Seed, TrafficLen));
  for (auto &[Name, T] : Traces) {
    TrafficSet S;
    S.Name = Name;
    for (const profile::TracePacket &P : T)
      S.Offered.push_back({P.Frame, P.Port});
    S.Window.assign(T.begin(),
                    T.begin() + std::min<size_t>(WindowLen, T.size()));
    In.Sets.push_back(std::move(S));
  }
  In.GenNs = static_cast<uint64_t>(cpuNs() - C0);
  Log.add("traffic.gen", Parent, 0, W0, nowNs());

  // Each traffic set gets a fresh interpreter: the stateful apps' tables
  // must start from the same control-plane state the simulator does.
  SpanScope Ref(Log, "reference", Parent, 0);
  for (TrafficSet &S : In.Sets) {
    apps::AppInterp AI = apps::makeAppInterp(App);
    if (!AI.I) {
      Err = App.Name + ": reference interpreter failed to build: " + AI.Error;
      return false;
    }
    std::vector<baker::BitField> Fields;
    if (!txFields(
            App.TxMetaFields,
            [&](const std::string &Name) -> const baker::BitField * {
              for (const baker::BitField &F : AI.Unit->Sema.MetaFields)
                if (F.Name == Name)
                  return &F;
              return nullptr;
            },
            Fields)) {
      Err = App.Name + ": unknown Tx metadata field";
      return false;
    }
    for (const profile::TracePacket &P : S.Window) {
      interp::RunResult R = AI.I->inject(P.Frame, P.Port);
      if (R.Error) {
        Err = App.Name + " " + S.Name + ": reference interpreter error: " +
              R.ErrorMsg;
        return false;
      }
      for (const interp::TxPacket &Tx : R.Tx)
        S.Reference.push_back(outKey(Tx.Frame, Tx.Meta, Fields));
    }
    std::sort(S.Reference.begin(), S.Reference.end());
  }
  return true;
}

bool perfbench::runCell(const CellSpec &C, const SimParams &P, SpanLog &Log,
                        CellResult &R, std::string &Err) {
  const apps::AppBundle &App = *C.In->App;
  R.Label = App.Name + " " + driver::optLevelName(C.Level) + "@" +
            std::to_string(C.MEs);
  uint64_t Cell = Log.enabled() ? Log.newCell() : 0;
  SpanScope CellSpan(Log, "cell", 0, Cell);

  driver::CompileOptions Opts;
  Opts.Level = C.Level;
  Opts.Map.NumMEs = C.MEs;
  Opts.TxMetaFields = App.TxMetaFields;
  std::unique_ptr<obs::CompileObserver> Obs;
  int64_t ObsEpoch = 0;
  if (Log.enabled()) {
    Obs = std::make_unique<obs::CompileObserver>();
    ObsEpoch = nowNs() - usToNs(Obs->nowUs());
    Opts.Observer = Obs.get();
  }
  DiagEngine Diags;
  int64_t W0 = nowNs(), C0 = cpuNs();
  auto Built =
      driver::compile(App.Source, C.In->ProfTrace, App.Tables, Opts, Diags);
  R.CompileMs = msSince(C0, cpuNs());
  int64_t W1 = nowNs();
  if (!Built) {
    Err = R.Label + ": compile failed:\n" + Diags.str();
    return false;
  }

  R.ImageHash = imageHash(*Built);
  R.Aggregates = static_cast<unsigned>(Built->Plan.Aggregates.size());
  for (const map::Aggregate &A : Built->Plan.Aggregates)
    if (!A.OnXScale)
      R.MeCopies += A.Copies;
  for (const map::ChannelDecision &D : Built->Plan.Channels)
    R.NNChannels += D.Kind == map::ChannelKind::NextNeighbor;
  R.PlanAttempts = Built->PlanIterations;
  for (const driver::AggregateBinary &B : Built->Images) {
    R.CodeSlots += B.Code.CodeSlots;
    if (!B.OnXScale)
      R.WcetCyclesPerPkt += B.Wcet.CyclesPerPacket;
  }
  R.Findings = Built->Findings.size();

  if (Obs) {
    uint64_t Id = Log.add("compile", CellSpan.id(), Cell, W0, W1);
    for (const obs::PassRecord &PR : Obs->passes()) {
      Log.add(PR.Name, Id, Cell, ObsEpoch + usToNs(PR.StartUs),
              ObsEpoch + usToNs(PR.StartUs + PR.WallUs));
      R.PhaseUs[PR.Name] += PR.WallUs;
      R.FixpointRounds += PR.FixpointRounds;
      if (PR.Name == "ir-lower")
        R.IrInstrsLowered = PR.After.Instrs;
      if (PR.Name == "verify")
        R.IrInstrsOut = PR.After.Instrs;
    }
    for (const obs::Remark &Rm : Obs->Remarks.remarks()) {
      if (Rm.Kind == obs::RemarkKind::Fired)
        ++R.Fired[Rm.Pass];
      else if (Rm.Kind == obs::RemarkKind::Missed)
        ++R.Missed[Rm.Pass];
    }
  }

  for (const TrafficSet &Set : C.In->Sets)
    R.Sims.push_back(simulate(*Built, C, Set, P, Log, CellSpan.id(), Cell));
  return true;
}
