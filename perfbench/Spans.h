//===- perfbench/Spans.h - in-memory span recorder for the traced run ---------==//
//
// The traced run records one span per layer boundary the benchmark
// crosses (cell, compile and its observer phases, make_sim, sim.warmup,
// sim.measure, check, plus the per-pass setup). Spans stay in memory and
// are written out once, as Chrome trace JSON, when the run ends. Every
// span of one cell carries that cell's id.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host steady-clock time in nanoseconds. Spans use it.
int64_t nowNs();

/// CPU time of the calling thread in nanoseconds. The host-time metrics
/// use it: other tenants of a shared host take wall time from the
/// benchmark far more than they add CPU time to it.
int64_t cpuNs();

struct Span {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = top level.
  uint64_t Cell = 0;   ///< Shared by every span of one cell; 0 = none.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span starting now; returns its id (0 when disabled).
  uint64_t begin(std::string Name, uint64_t Parent, uint64_t Cell);
  /// Closes span \p Id now. Ignores id 0.
  void end(uint64_t Id);
  /// Records an already-finished span; returns its id (0 when disabled).
  uint64_t add(std::string Name, uint64_t Parent, uint64_t Cell,
               int64_t StartNs, int64_t EndNs);
  /// A fresh cell id (1, 2, ...).
  uint64_t newCell() { return ++LastCell; }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per span name, in ns: each span's duration minus the part
  /// of its interval covered by its children, summed over spans.
  std::map<std::string, int64_t> selfNsByName() const;
  /// Total duration per span name, in ns.
  std::map<std::string, int64_t> totalNsByName() const;

  /// Chrome trace JSON: one complete ("X") event per span, the cell id
  /// and parent id in its args.
  void writeChromeTrace(std::ostream &OS) const;

private:
  bool Enabled;
  uint64_t LastCell = 0;
  std::vector<Span> Spans; ///< Spans[Id - 1] has id Id.
};

/// Opens a span for the lifetime of the scope.
class SpanScope {
public:
  SpanScope(SpanLog &L, std::string Name, uint64_t Parent, uint64_t Cell)
      : L(L), Id(L.begin(std::move(Name), Parent, Cell)) {}
  ~SpanScope() { L.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  uint64_t id() const { return Id; }

private:
  SpanLog &L;
  uint64_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
