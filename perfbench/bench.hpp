#pragma once
// Shared plumbing of the workload program: options, the result report,
// timing helpers, and the in-memory span tracer. Everything here belongs to
// the benchmark; the library under test is only called, never instrumented.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace aseck {}

namespace perfbench {

// The library's module namespaces (crypto, ota, sim, util, v2x, ...).
using namespace aseck;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// Time the process started running static initialisers — the origin of
/// every workload's `setup_s`.
Clock::time_point process_start();

/// Threads of the city workloads and of corpus generation (the benchmark
/// host has 4 cores).
inline constexpr unsigned kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Stop right after set-up and report only `setup_s` (run.py takes the
  /// median over several fresh processes).
  bool setup_only = false;
  /// Where the traced run writes its spans (JSON); empty = do not write.
  std::string trace_out;
};

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// What one workload process reports back to run.py.
class Report {
 public:
  /// Marks the end of set-up: the timed window starts now.
  void setup_done();

  void metric(std::string name, double value, std::string unit);
  /// Counts `attempted` unit operations of the workload, `failed` of which
  /// produced a wrong result.
  void ops(std::uint64_t attempted, std::uint64_t failed);
  /// One run-level correctness gate; a failing gate is one failed operation
  /// and is described on stderr.
  void gate(bool ok, const std::string& what);

  bool correct() const { return failed_ == 0; }
  /// One JSON object on one line.
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  double setup_s_ = 0.0;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Records spans (name, layer, start, end, parent) in memory; written out
/// once, when the run ends. A disabled tracer records nothing and its
/// scopes cost one branch. Single-threaded: spans are opened only by the
/// benchmark's own thread, around its calls into the library.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    std::int32_t parent;  // -1 for a root span
    std::int32_t root;    // index of the outermost enclosing span
    double start_us;
    double end_us;
  };

  Tracer(bool enabled, std::string trace_id);

  class Scope {
   public:
    Scope(Tracer* t, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int32_t id_ = -1;
  };
  /// Opens a span that closes when the returned scope is destroyed; it
  /// nests under the innermost span still open.
  Scope span(const char* name, const char* layer) {
    return Scope(enabled_ ? this : nullptr, name, layer);
  }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time (duration minus the time covered by direct children) summed
  /// over spans of `layer` below the root span `root`, in microseconds.
  double self_us(std::int32_t root, const char* layer) const;
  /// Index of the most recent root span named `name`, or -1.
  std::int32_t find_root(const char* name) const;
  /// Durations in microseconds of every span named `name`.
  std::vector<double> durations_us(const char* name) const;
  /// Writes {"trace_id":..,"spans":[..]}; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  double now_us() const;

  bool enabled_;
  std::string trace_id_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// --- workloads ----------------------------------------------------------------

void run_city(const Options& opt, bool real_crypto, Tracer& tr, Report& rep);
void run_verify_burst(const Options& opt, Tracer& tr, Report& rep);
void run_ota_storm(const Options& opt, Tracer& tr, Report& rep);

}  // namespace perfbench
