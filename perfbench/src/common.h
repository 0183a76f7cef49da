// Shared pieces of the repository benchmark: options, the result record
// printed as the last stdout line, sample statistics, the span tracer and
// the per-workload configuration pin.
#pragma once

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/types.h"

namespace pb {

using sj::i64;
using sj::u64;
using sj::usize;

using Clock = std::chrono::steady_clock;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count());
}

inline double ms_between(u64 a_ns, u64 b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

/// Command-line options (--workload --seed --seconds
/// --trace, plus --out for the span dump directory).
struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
};

/// Everything a workload pins instead of inheriting it from the
/// environment. Applied with setenv() before any library code reads the
/// variables (they are read once and cached).
struct Pin {
  int opt_level = 1;        // SHENJING_OPT and MapperConfig::opt_level
  int pipeline = 1;         // SHENJING_PIPELINE and MapperConfig::pipeline
  int placement_evals = 48; // MapperConfig::placement_evals
  usize threads = 4;        // SHENJING_THREADS; also the workload's own pool
  int spin = 64;            // SHENJING_SPIN
};

/// One named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. The last stdout line is
/// {"correct", "attempted", "failed", "metrics"}.
struct Result {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<Metric> metrics;
  /// Free-form provenance lines (JSON objects) printed before the result.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
};

/// Linear-interpolated quantile of `v` (copied and sorted), q in [0, 1];
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into each layer.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  u64 id = 0;
  u64 parent = 0;  // 0 = root
  u64 op = 0;      // frame / batch / request id shared by one op's spans
  u64 start_ns = 0;
  u64 end_ns = 0;
};

/// Keeps spans in memory while enabled (spans from earlier enabled stretches
/// are kept); write() dumps them as JSON lines. With tracing off, begin/end
/// do nothing and read no clock.
class Tracer {
 public:
  bool enabled() const { return on_; }
  void enable(usize reserve);
  void disable() { on_ = false; }

  /// Opens a span and returns its id (0 when tracing is off).
  u64 begin(const char* name, u64 op, u64 parent);
  void end(u64 id);
  /// Records a finished span measured elsewhere (server-reported times).
  u64 record(const char* name, u64 op, u64 parent, u64 start_ns, u64 end_ns);

  /// Share (%) of the total duration of the root spans named any of `roots`
  /// not covered by their direct children: the part of the end-to-end time
  /// no layer span explains.
  double residual_pct(std::initializer_list<const char*> roots) const;

  /// Writes every span as one JSON object per line. Returns false on an
  /// I/O error.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, u64 op, u64 parent = 0)
      : t_(t), id_(t.begin(name, op, parent)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  u64 id() const { return id_; }

 private:
  Tracer& t_;
  u64 id_;
};

/// Formats a double with all its digits for JSON.
std::string num(double v);

}  // namespace pb
