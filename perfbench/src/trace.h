// Span recorder for the traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each library module's public functions, and only on the main thread
// (the library's worker threads are never instrumented). Each span keeps
// its name, start, end and parent; names are "<layer>.<what>" with the
// layer named after the library module (net, sim, sched, can, cpu, kir,
// campaign). Spans stay in memory and are written once, at exit, as Chrome
// trace JSON (one event per line: diffable, and loadable in
// chrome://tracing or Perfetto for plotting).
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  // `rep` spans cover one closed-loop scenario run (setup, run, analysis);
  // `probe` spans cover fixed-budget single-layer measurements. Self time
  // per layer is reported over rep spans only.
  enum class Kind { rep, probe };

  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    Kind kind = Kind::rep;
  };

  // RAII span; a null tracer makes it a no-op, so untraced code paths pay
  // one branch.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, Kind kind = Kind::rep);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  // Records an already finished span, child of the innermost open span
  // (for intervals delimited by library callbacks rather than by a scope).
  void record(const char* name, Clock::time_point start,
              Clock::time_point end, Kind kind = Kind::rep);

  // Self time (span duration minus the time its child spans cover),
  // summed per layer over rep spans, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  // Writes every span as Chrome trace JSON, with `meta` as otherData.
  // Returns false when the file cannot be written.
  bool write_chrome(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

// Ends a traced run: notes self time per layer (self_ms.<layer>, summed
// over the run's rep spans) and writes the Chrome trace to
// <trace_dir>/<workload>-seed<N>.trace.json when a directory is given.
void finish_trace(const Tracer& tracer, const Options& opt, Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
