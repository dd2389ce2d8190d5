// perfbench_workload — runs one benchmark workload in this (fresh) process
// and prints its report as one JSON line on stdout. run.py is the entry
// point users run; it builds this binary and combines several of its
// processes into one benchmark result.
//
// Usage: perfbench_workload --workload NAME --seed N --seconds S
//                           [--trace 0|1] [--setup-only] [--trace-out PATH]
// Exit status: 0 when every correctness gate passed, 1 when one failed,
// 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "micro.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point process_start() { return g_process_start; }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Report::setup_done() { setup_s_ = seconds_since(process_start()); }

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::gate(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", what.c_str());
  }
}

std::string Report::to_json() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"setup_s\":%.9g,\"metrics\":{",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), setup_s_);
  std::string out = buf;
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                  i ? "," : "", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  return out + "}}";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--workload") == 0 && has_value) {
      opt.workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(a, "--trace") == 0 && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(a, "--setup-only") == 0) {
      opt.setup_only = true;
    } else if (std::strcmp(a, "--trace-out") == 0 && has_value) {
      opt.trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench_workload: unknown argument '%s'\n", a);
      return 2;
    }
  }
  if (!have_seed || !(opt.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench_workload: --seed and --seconds > 0 are required\n");
    return 2;
  }

  Tracer tracer(opt.trace, opt.workload + "-seed" + std::to_string(opt.seed));
  Report rep;
  if (opt.workload == "city_crypto") {
    run_city(opt, /*real_crypto=*/true, tracer, rep);
  } else if (opt.workload == "city_radio") {
    run_city(opt, /*real_crypto=*/false, tracer, rep);
  } else if (opt.workload == "verify_burst") {
    run_verify_burst(opt, tracer, rep);
  } else if (opt.workload == "ota_storm") {
    run_ota_storm(opt, tracer, rep);
  } else {
    std::fprintf(stderr, "perfbench_workload: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (opt.trace && !opt.setup_only) run_micro(opt.seed, tracer, rep);
  if (opt.trace && !opt.trace_out.empty()) {
    rep.gate(tracer.write(opt.trace_out), "could not write " + opt.trace_out);
  }
  std::printf("%s\n", rep.to_json().c_str());
  return rep.correct() ? 0 : 1;
}
