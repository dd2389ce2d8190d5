// city_crypto and city_radio: the E19 metro (v2x::MetroWorld on
// sim::ShardedWorld) advanced one 100 ms epoch per run_until call.
//
// city_crypto runs real ECDSA on the receive path at 10k vehicles; it is the
// one workload where admission, receiver key derivation, signing and the
// batch kernel all block the epoch. city_radio is the same city at 100k
// vehicles with crypto modeled, so it measures the sharded world, the radio
// scan and the cross-shard merge while bypassing crypto entirely.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "bench.hpp"
#include "micro.hpp"
#include "v2x/citynet.hpp"

namespace perfbench {
namespace {

using util::SimTime;

constexpr double kWarmupSimS = 1.0;
/// The first simulated second of the window: peak memory is read after it
/// (a fixed amount of work, whatever the host's speed), and the traced run's
/// 1-thread replay covers it.
constexpr std::size_t kFirstEpochs = 10;

/// E19's metro density (~250 vehicles/km^2) at the workload's fleet size,
/// the world side snapped to the 500 m shard cell.
v2x::MetroConfig city_config(bool real_crypto, std::uint64_t seed,
                             unsigned threads) {
  v2x::MetroConfig cfg;
  cfg.vehicles = real_crypto ? 10000 : 100000;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.real_crypto = real_crypto;
  const double side =
      std::sqrt(static_cast<double>(cfg.vehicles) / 100000.0) * 20000.0;
  cfg.width_m = cfg.height_m =
      std::max(1000.0, std::round(side / 500.0) * 500.0);
  return cfg;
}

/// Advances `metro` by one epoch with one run_until call; returns its wall
/// time in ms.
double step(v2x::MetroWorld& metro, SimTime& now, Tracer& tr) {
  now = now + metro.config().epoch;
  const auto t0 = Clock::now();
  {
    auto s = tr.span("v2x::MetroWorld::run_until", "v2x");
    metro.run_until(now);
  }
  return seconds_since(t0) * 1e3;
}

/// Steps epoch by epoch until sim time `until`; returns the summed wall ms.
double step_to(v2x::MetroWorld& metro, SimTime& now, SimTime until, Tracer& tr) {
  double ms = 0.0;
  while (now < until) ms += step(metro, now, tr);
  return ms;
}

bool same_radio(const v2x::MetroWorld::Totals& a,
                const v2x::MetroWorld::Totals& b) {
  return a.bsm_tx == b.bsm_tx && a.rx == b.rx && a.rx_cross == b.rx_cross &&
         a.lost == b.lost && a.migrations == b.migrations &&
         a.rotations == b.rotations;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void run_city(const Options& opt, bool real_crypto, Tracer& tr, Report& rep) {
  const v2x::MetroConfig cfg = city_config(real_crypto, opt.seed, kThreads);
  auto metro = std::make_unique<v2x::MetroWorld>(cfg);
  SimTime now = SimTime::zero();
  step_to(*metro, now, SimTime::from_seconds_f(kWarmupSimS), tr);
  rep.setup_done();
  if (opt.setup_only) return;

  // Timed window: whole epochs until --seconds of wall time have passed. The
  // traced run also notes which epochs rotated pseudonyms.
  const v2x::MetroWorld::Totals before = metro->totals();
  const std::uint64_t msgs_before = metro->world().messages();
  const SimTime window_start = now;
  std::vector<double> epoch_ms;
  double rotation_epoch_ms = 0.0;
  std::string first_digest;
  const auto w0 = Clock::now();
  {
    auto window = tr.span("perfbench::window", "bench");
    std::uint64_t rotations = before.rotations;
    do {
      const double ms = step(*metro, now, tr);
      epoch_ms.push_back(ms);
      if (tr.enabled()) {
        const std::uint64_t r = metro->totals().rotations;
        if (r != rotations) rotation_epoch_ms += ms;
        rotations = r;
      }
      if (epoch_ms.size() == kFirstEpochs) {
        rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        if (tr.enabled()) first_digest = metro->digest_json();
      }
    } while (epoch_ms.size() < kFirstEpochs || seconds_since(w0) < opt.seconds);
  }
  const double window_s = seconds_since(w0);
  const double sim_s = (now - window_start).seconds();
  const v2x::MetroWorld::Totals after = metro->totals();
  rep.metric("wall_s_per_sim_s", window_s / sim_s, "s/sim-s");

  // Gates. Crypto must never change who hears what: the modeled-crypto twin
  // of the same seed reaches identical radio totals. Honest senders only,
  // so no verification may fail.
  if (real_crypto) {
    rep.ops(after.verify_enqueued, after.verify_fail);
    v2x::MetroConfig twin_cfg = cfg;
    twin_cfg.real_crypto = false;
    v2x::MetroWorld twin(twin_cfg);
    SimTime twin_now = SimTime::zero();
    Tracer off(false, {});
    step_to(twin, twin_now, now, off);
    rep.gate(same_radio(after, twin.totals()),
             "city_crypto radio totals differ from the modeled-crypto twin");
  } else {
    rep.ops(epoch_ms.size(), 0);
  }
  rep.gate(after.rx > before.rx && after.bsm_tx > before.bsm_tx,
           "no receptions in the timed window");
  if (!opt.trace) return;

  // --- traced run: per-layer metrics ----------------------------------------
  const double rx = static_cast<double>(after.rx - before.rx);
  double window_epoch_ms = 0.0;
  for (double ms : epoch_ms) window_epoch_ms += ms;
  report_epoch_times(epoch_ms, rep);
  rep.metric("sim.cross_msgs_per_epoch",
             ratio(static_cast<double>(metro->world().messages() - msgs_before),
                   static_cast<double>(epoch_ms.size())),
             "count");
  rep.metric("v2x.rx_per_sim_s", rx / sim_s, "1/sim-s");
  rep.metric("v2x.ns_per_rx", ratio(window_s * 1e9, rx), "ns/rx");
  rep.metric("v2x.rotation_epoch_wall_share",
             ratio(rotation_epoch_ms, window_epoch_ms), "ratio");
  if (real_crypto) {
    // Whole-run totals (warm-up included): the registry is cumulative.
    sim::MetricsRegistry merged;
    metro->world().merge_metrics(merged);
    const double signs = static_cast<double>(after.beacon_signs);
    rep.metric("v2x.admit_hit_ratio",
               ratio(static_cast<double>(after.admit_hits - before.admit_hits), rx),
               "ratio");
    rep.metric("v2x.enqueued_per_unique_beacon",
               ratio(static_cast<double>(after.verify_enqueued), signs), "count");
    rep.metric("crypto.verify.primitive_per_unique_beacon",
               ratio(static_cast<double>(merged.counter_value("crypto.verify.primitive")),
                     signs),
               "count");
    report_verify_counters(merged, rep);
  }
  report_self_shares(tr, rep);

  // The same seed on one thread, to the end of the window's first second:
  // its digest must be byte-identical, and those epochs give the parallel
  // efficiency T1 / (threads * Tn).
  metro.reset();  // one city in memory at a time
  v2x::MetroConfig one_cfg = cfg;
  one_cfg.threads = 1;
  v2x::MetroWorld one(one_cfg);
  SimTime one_now = SimTime::zero();
  step_to(one, one_now, window_start, tr);
  double t1_ms = 0.0;
  {
    auto s = tr.span("perfbench::one_thread_replay", "bench");
    t1_ms = step_to(one, one_now, window_start + cfg.epoch * kFirstEpochs, tr);
  }
  double tn_ms = 0.0;
  for (std::size_t e = 0; e < kFirstEpochs; ++e) tn_ms += epoch_ms[e];
  rep.metric("sim.parallel_efficiency", ratio(t1_ms, kThreads * tn_ms), "ratio");
  rep.gate(one.digest_json() == first_digest,
           "1-thread and " + std::to_string(kThreads) + "-thread digests differ");
}

}  // namespace perfbench
