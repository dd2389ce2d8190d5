// verify_burst: one producer hands bursts of unique (key, digest,
// signature) triples to crypto::VerifyEngine::verify_batch with the batch
// kernel on — the call MetroWorld makes — at burst sizes up to 512, beyond
// the city's 64-item flush cap. Every signature has its own pseudonym key,
// so the verify cache is bypassed and the kernel itself is measured. Each
// burst stands for one 100 ms beacon period of one receiver; that is the
// simulated time `wall_s_per_sim_s` divides by.
//
// The burst schedule is a fixed multiset — 64 log-uniform quantiles of
// [1, 512], every 12th carrying one forged signature (~0.1% of all) — in a
// seeded order, and the corpus is exactly one pass over it (~5.2k
// signatures, more than the verify cache's 4096 entries, so a cyclic pass
// never hits it). Every pass therefore does the same work whatever the
// seed; only the keys, the messages, the order and where the forgeries sit
// change. The window runs whole passes.

#include <cmath>
#include <cstdint>

#include "bench.hpp"
#include "crypto/verify_engine.hpp"
#include "micro.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBursts = 64;
constexpr double kMaxBurst = 512.0;
constexpr std::size_t kForgedEvery = 12;
constexpr double kBeaconPeriodS = 0.1;
/// Bursts the window holds at least, so ten lie beyond the p99.
constexpr std::size_t kMinBursts = 1000;

struct Burst {
  std::size_t first = 0;  // corpus index of the burst's first item
  std::size_t size = 0;
};

}  // namespace

void run_verify_burst(const Options& opt, Tracer& tr, Report& rep) {
  util::Rng rng(opt.seed);
  std::vector<std::size_t> sizes(kBursts);
  std::vector<std::size_t> forged_at(kBursts, SIZE_MAX);  // SIZE_MAX: no forgery
  for (std::size_t k = 0; k < kBursts; ++k) {
    const double q = (static_cast<double>(k) + 0.5) / kBursts;
    sizes[k] = static_cast<std::size_t>(std::llround(std::pow(kMaxBurst, q)));
    if (k % kForgedEvery == kForgedEvery / 2) forged_at[k] = rng.uniform(sizes[k]);
  }
  std::vector<std::size_t> order(kBursts);
  for (std::size_t k = 0; k < kBursts; ++k) order[k] = k;
  for (std::size_t k = kBursts - 1; k > 0; --k) {
    std::swap(order[k], order[rng.uniform(k + 1)]);
  }

  std::vector<Burst> bursts;
  std::vector<char> forged;
  for (const std::size_t k : order) {
    bursts.push_back(Burst{forged.size(), sizes[k]});
    for (std::size_t j = 0; j < sizes[k]; ++j) forged.push_back(j == forged_at[k]);
  }
  const std::vector<SignedItem> corpus = make_items(opt.seed, forged, kThreads);

  crypto::VerifyEngine engine;
  engine.set_batch_kernel(true);
  sim::MetricsRegistry reg;
  engine.bind_metrics(reg);
  rep.setup_done();
  if (opt.setup_only) return;

  // Timed window: whole passes over the schedule until --seconds have passed
  // and at least kMinBursts bursts were verified.
  std::vector<double> burst_ms;
  std::uint64_t sigs = 0, wrong = 0;
  std::vector<crypto::VerifyEngine::BatchItem> items;
  const auto w0 = Clock::now();
  {
    auto window = tr.span("perfbench::window", "bench");
    do {
      for (const Burst& b : bursts) {
        items.clear();
        for (std::size_t i = b.first; i < b.first + b.size; ++i) {
          items.push_back({&corpus[i].pub, corpus[i].digest, &corpus[i].sig});
        }
        const auto t0 = Clock::now();
        std::vector<bool> verdicts;
        {
          auto s = tr.span("crypto::VerifyEngine::verify_batch", "crypto");
          verdicts = engine.verify_batch(items);
        }
        burst_ms.push_back(seconds_since(t0) * 1e3);
        for (std::size_t j = 0; j < b.size; ++j) {
          wrong += verdicts[j] == static_cast<bool>(forged[b.first + j]);
        }
        sigs += b.size;
      }
      if (burst_ms.size() == kBursts) rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    } while (seconds_since(w0) < opt.seconds || burst_ms.size() < kMinBursts);
  }
  const double window_s = seconds_since(w0);
  rep.ops(sigs, wrong);
  rep.metric("wall_s_per_sim_s",
             window_s / (kBeaconPeriodS * static_cast<double>(burst_ms.size())),
             "s/sim-s");
  if (!opt.trace) return;

  // --- traced run: per-layer metrics ----------------------------------------
  const double n = static_cast<double>(sigs);
  const crypto::BatchVerifyStats& st = engine.batch_stats();
  report_epoch_times(burst_ms, rep);
  rep.metric("crypto.burst_us_per_sig", window_s * 1e6 / n, "us/sig");
  rep.metric("crypto.verify.primitive_per_unique_beacon",
             static_cast<double>(engine.primitive_calls()) / n, "count");
  report_verify_counters(reg, rep);
  const auto rlc_checks = static_cast<double>(st.rlc_checks);
  rep.metric("crypto.rlc_items_per_check",
             rlc_checks > 0 ? static_cast<double>(st.rlc_items) / rlc_checks : 0.0,
             "count");
  rep.metric("crypto.bisections", 1e3 * static_cast<double>(st.bisections) / n, "1/ksig");
  rep.metric("crypto.single_checks", 1e3 * static_cast<double>(st.single_checks) / n,
             "1/ksig");
  report_self_shares(tr, rep);
}

}  // namespace perfbench
