// ota_storm: E21's slowdown_wave campaign storm against the hardened OTA
// serving front (admission control on), a fleet of 1024 vehicles plus
// background metadata pollers. A storm builds a fresh fleet, server and
// campaign on the shared repositories, then runs the campaign in 100 ms
// scheduler epochs until it finishes. Set-up covers the repositories and the
// first storm's fleet; the window runs storms until it ends, each later
// storm building its fleet between campaigns (outside the per-storm rate).
//
// It covers what the city and verify workloads never run: the ota serving
// front and clients, ecu flash staging, and bulk SHA-256/CRC-32 over image
// bytes, with single signature verifies instead of batches.

#include <algorithm>
#include <memory>
#include <string>

#include "bench.hpp"
#include "ecu/flash.hpp"
#include "micro.hpp"
#include "ota/campaign.hpp"
#include "ota/client.hpp"
#include "ota/repository.hpp"
#include "ota/server.hpp"
#include "sim/faultplan.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {
namespace {

using util::SimTime;

constexpr std::size_t kFleet = 1024;
constexpr std::size_t kPollers = 12;
const SimTime kEpoch = SimTime::from_ms(100);
const SimTime kHorizon = SimTime::from_s(240);

ota::ServerConfig server_config() {
  ota::ServerConfig c;
  c.admission_enabled = true;
  c.metadata_service = SimTime::from_ms(2);
  c.chunk_service = SimTime::from_ms(2);
  c.cache_hit_service = SimTime::from_us(250);
  c.delta_cpu_factor = 3.0;
  c.max_queue_delay = SimTime::from_ms(20);
  c.background_rps = 400;  // above the poller floor: steady state is calm
  c.tier_window = SimTime::from_ms(100);
  c.retry_slot = SimTime::from_ms(5);
  c.outage_retry_base = SimTime::from_ms(300);
  return c;
}

/// Many small waves, so dispatch decisions keep landing inside the
/// brown-out, with wave-level backpressure against the server.
ota::CampaignConfig campaign_config(ota::RepositoryServer& server) {
  ota::CampaignConfig c;
  c.wave_size = kFleet / 8;
  c.wave_gap = SimTime::from_s(1);
  c.vehicle_stagger = SimTime::from_ms(50);
  c.wave_abort_ratio = 2.0;  // never abort: count stranded vehicles instead
  c.confirm_timeout = SimTime::from_s(30);
  c.retry.max_attempts = 6;
  c.retry.initial_backoff = SimTime::from_ms(100);
  c.retry.chunk_bytes = kChunkBytes;
  c.retry.link_bytes_per_sec = 2'000'000;
  c.retry.server = &server;
  c.pause_shed_ratio = 0.08;
  c.resume_shed_ratio = 0.02;
  c.backpressure_poll = SimTime::from_ms(500);
  return c;
}

struct StormResult {
  std::vector<double> epoch_ms;
  double wall_s = 0.0;  // host time of the campaign run
  double sim_s = 0.0;   // campaign duration (first epoch to finish)
  std::size_t updated = 0;
  bool finished = false;
  std::string final_tier;
  std::vector<double> update_ms;  // simulated time-to-update per vehicle
  double shed_ratio = 0, cache_hit_rate = 0, coalesced_ratio = 0, max_queue_ms = 0;
  double retries_per_vehicle = 0;
};

/// One storm: the fleet, the serving front with a kRepoSlowdown brown-out
/// from 2 s to 14 s, the campaign and the pollers. Built by the constructor,
/// run once by run().
class Storm {
 public:
  Storm(const OtaRepos& repos, std::uint64_t seed, Tracer& tr)
      : server_(repos.director, repos.images, server_config()),
        plan_(sched_, seed),
        camp_(sched_, repos.director, repos.images, "vecu-fw", "vecu-hw",
              campaign_config(server_)),
        tr_(tr) {
    server_.register_delta_base("vecu-fw", repos.base);
    server_.set_fault_port(&plan_.port("ota.server"));
    sim::FaultSpec brownout;
    brownout.target = "ota.server";
    brownout.kind = sim::FaultKind::kRepoSlowdown;
    brownout.delay = SimTime::from_ms(8);  // per-request inflation
    plan_.window(SimTime::from_s(2), SimTime::from_s(14), brownout);

    const ecu::FirmwareImage installed{"vecu-fw", 1, repos.base};
    for (std::size_t i = 0; i < kFleet; ++i) {
      const std::string id = "vm" + std::to_string(i);
      {
        auto s = tr.span("ecu::Flash::provision", "ecu");
        flashes_.push_back(std::make_unique<ecu::Flash>());
        flashes_.back()->provision(installed);
      }
      auto s = tr.span("ota::CampaignRunner::add_vehicle", "ota");
      clients_.push_back(std::make_unique<ota::FullVerificationClient>(
          id, repos.director.trusted_root(), repos.images.trusted_root()));
      clients_.back()->bind_telemetry(telemetry_);
      camp_.add_vehicle(id, *flashes_.back(), *clients_.back());
    }
  }
  Storm(const Storm&) = delete;
  Storm& operator=(const Storm&) = delete;

  StormResult run() {
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < kPollers; ++j) {
      sched_.schedule_at(SimTime::from_ms(5 + 7 * j), [this] { poll(); });
    }
    camp_.start();
    StormResult r;
    SimTime now = SimTime::zero();
    while (!camp_.finished() && now < kHorizon) {
      now = now + kEpoch;
      const auto e0 = Clock::now();
      {
        auto s = tr_.span("sim::Scheduler::run_until", "sim");
        sched_.run_until(now);
      }
      r.epoch_ms.push_back(seconds_since(e0) * 1e3);
    }
    r.sim_s = now.seconds();
    {
      // Pollers only, up to the horizon: idle windows walk the ladder down.
      auto s = tr_.span("sim::Scheduler::run_until", "sim");
      sched_.run_until(kHorizon);
    }
    server_.observe(sched_.now());
    r.wall_s = seconds_since(t0);

    r.updated = camp_.updated();
    r.finished = camp_.finished();
    r.final_tier = ota::server_tier_name(server_.tier());
    for (const ota::VehicleLedger& l : camp_.ledger()) {
      if (l.outcome == ota::VehicleOutcome::kUpdated ||
          l.outcome == ota::VehicleOutcome::kUpdatedAfterPowerLoss) {
        r.update_ms.push_back(l.finished_at.ms());
      }
    }
    const double requests =
        static_cast<double>(std::max<std::uint64_t>(server_.requests(), 1));
    r.shed_ratio = static_cast<double>(server_.shed()) / requests;
    r.coalesced_ratio = static_cast<double>(server_.coalesced()) / requests;
    r.cache_hit_rate = server_.cache_hit_rate();
    r.max_queue_ms = server_.max_queue_delay_seen().ms();
    std::uint64_t retries = 0;
    for (std::size_t i = 0; i < kFleet; ++i) {
      retries += telemetry_.metrics->counter_value("ota.vm" + std::to_string(i) +
                                                   ".fetch_retries");
    }
    r.retries_per_vehicle = static_cast<double>(retries) / kFleet;
    return r;
  }

 private:
  /// One background metadata poller: the load floor the campaign storms on
  /// top of. Cooperative: it honours the server's retry-after.
  void poll() {
    const SimTime now = sched_.now();
    if (now >= kHorizon) return;
    ota::ServeStatus status;
    SimTime retry_after;
    {
      auto s = tr_.span("ota::RepositoryServer::fetch_metadata", "ota");
      const ota::MetadataResponse r =
          server_.fetch_metadata(ota::ServeClass::kBackground, now);
      status = r.status;
      retry_after = r.retry_after;
    }
    const SimTime wait = status == ota::ServeStatus::kOk
                             ? SimTime::from_ms(50)
                             : std::max(SimTime::from_ms(50), retry_after);
    sched_.schedule_after(wait, [this] { poll(); });
  }

  sim::Scheduler sched_;
  ota::RepositoryServer server_;
  sim::FaultPlan plan_;
  ota::CampaignRunner camp_;
  sim::Telemetry telemetry_;
  std::vector<std::unique_ptr<ecu::Flash>> flashes_;
  std::vector<std::unique_ptr<ota::FullVerificationClient>> clients_;
  Tracer& tr_;
};

}  // namespace

void run_ota_storm(const Options& opt, Tracer& tr, Report& rep) {
  const OtaRepos repos(opt.seed);
  auto storm = std::make_unique<Storm>(repos, opt.seed, tr);
  rep.setup_done();
  if (opt.setup_only) return;

  std::vector<StormResult> storms;
  const auto w0 = Clock::now();
  {
    auto window = tr.span("perfbench::window", "bench");
    while (true) {
      storms.push_back(storm->run());
      if (storms.size() == 1) rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
      storm.reset();  // one fleet in memory at a time
      if (seconds_since(w0) >= opt.seconds) break;
      storm = std::make_unique<Storm>(repos, opt.seed, tr);
    }
  }

  std::vector<double> epoch_ms;
  double wall_s = 0.0, sim_s = 0.0;
  for (const StormResult& s : storms) {
    epoch_ms.insert(epoch_ms.end(), s.epoch_ms.begin(), s.epoch_ms.end());
    wall_s += s.wall_s;
    sim_s += s.sim_s;
    rep.ops(kFleet, kFleet - s.updated);
    rep.gate(s.finished, "campaign did not finish");
    rep.gate(s.final_tier == "normal", "degradation ladder ended at " + s.final_tier);
    // Time-to-update is simulated: every storm of one seed must agree.
    rep.gate(s.update_ms == storms.front().update_ms,
             "storms of one seed disagree on time-to-update");
  }
  rep.metric("wall_s_per_sim_s", wall_s / sim_s, "s/sim-s");
  if (!opt.trace) return;

  // --- traced run: per-layer metrics ----------------------------------------
  const StormResult& s = storms.front();
  report_epoch_times(epoch_ms, rep);
  rep.metric("ota.update_ms.p50", percentile(s.update_ms, 50), "sim-ms");
  rep.metric("ota.update_ms.p99", percentile(s.update_ms, 99), "sim-ms");
  rep.metric("ota.server.shed_ratio", s.shed_ratio, "ratio");
  rep.metric("ota.server.cache_hit_rate", s.cache_hit_rate, "ratio");
  rep.metric("ota.server.coalesced_ratio", s.coalesced_ratio, "ratio");
  rep.metric("ota.server.max_queue_ms", s.max_queue_ms, "sim-ms");
  rep.metric("ota.client.retries_per_vehicle", s.retries_per_vehicle, "count");
  rep.metric("ota.server.fetch_metadata_us",
             median(tr.durations_us("ota::RepositoryServer::fetch_metadata")), "us/call");
  report_self_shares(tr, rep);
}

}  // namespace perfbench
