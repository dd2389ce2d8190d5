// Tests for the sharded world: fork-join thread pool, epoch barrier
// semantics, canonical cross-shard merge order, per-shard RNG streams,
// deterministic telemetry merge, and thread-count invariance of the city
// model (MetroWorld digests must be byte-identical for 1 vs N threads).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sharded.hpp"
#include "sim/threadpool.hpp"
#include "util/smallfn.hpp"
#include "v2x/citynet.hpp"

namespace aseck::sim {
namespace {

using util::SimTime;

// ---------------------------------------------------------------------------
// SmallFn

TEST(SmallFn, InvokesAndMoves) {
  int hits = 0;
  util::SmallFn<void(int), 32> f([&hits](int k) { hits += k; });
  ASSERT_TRUE(static_cast<bool>(f));
  f(2);
  EXPECT_EQ(hits, 2);
  util::SmallFn<void(int), 32> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));
  g(3);
  EXPECT_EQ(hits, 5);
  g.reset();
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(SmallFn, MoveOnlyCaptureAndReturnValue) {
  auto p = std::make_unique<int>(7);
  util::SmallFn<int(), 16> f([q = std::move(p)] { return *q; });
  EXPECT_EQ(f(), 7);
  util::SmallFn<int(), 16> g;
  g = std::move(f);
  EXPECT_EQ(g(), 7);
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossCallsAndEmptyRange) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(8, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
  }
  EXPECT_EQ(sum.load(), 50 * 28);
  pool.parallel_for(0, [&](std::size_t) { sum.fetch_add(1000); });
  EXPECT_EQ(sum.load(), 50 * 28);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives an exception and keeps working.
  std::atomic<int> ok{0};
  pool.parallel_for(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
}

TEST(ThreadPool, FirstExceptionWinsWhenSeveralBatchesThrow) {
  // With threads == 1 parallel_for is an inline loop, so "first caught" is
  // deterministic: the lowest throwing index must be the one rethrown even
  // though later indices throw too.
  ThreadPool pool(1);
  try {
    pool.parallel_for(32, [&](std::size_t i) {
      if (i == 5 || i == 20) throw std::runtime_error("idx " + std::to_string(i));
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "idx 5");
  }

  // Multi-threaded: every index still runs or is abandoned cleanly, some
  // exception surfaces, and the pool stays reusable afterwards.
  ThreadPool wide(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(wide.parallel_for(64,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i % 7 == 3) {
                                     throw std::runtime_error("mid-batch");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_GT(ran.load(), 0);
  std::atomic<int> after{0};
  wide.parallel_for(64, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

// ---------------------------------------------------------------------------
// ShardedWorld

ShardedWorldConfig grid_cfg(double w, double h, double cell, unsigned threads) {
  ShardedWorldConfig cfg;
  cfg.width_m = w;
  cfg.height_m = h;
  cfg.cell_m = cell;
  cfg.threads = threads;
  cfg.epoch = SimTime::from_ms(100);
  cfg.seed = 42;
  return cfg;
}

TEST(ShardedWorld, GridGeometryAndIndexing) {
  ShardedWorld w(grid_cfg(1000, 500, 250, 1));
  EXPECT_EQ(w.cols(), 4u);
  EXPECT_EQ(w.rows(), 2u);
  EXPECT_EQ(w.shard_count(), 8u);
  EXPECT_EQ(w.shard_index_at(0, 0), 0u);
  EXPECT_EQ(w.shard_index_at(999, 499), 7u);
  EXPECT_EQ(w.shard_index_at(-50, -50), 0u);       // clamps
  EXPECT_EQ(w.shard_index_at(5000, 5000), 7u);     // clamps
  EXPECT_EQ(w.shard(5).col(), 1u);
  EXPECT_EQ(w.shard(5).row(), 1u);
  EXPECT_EQ(w.shard(5).index(), 5u);
}

TEST(ShardedWorld, PostDeliversAtNextEpochBoundary) {
  ShardedWorld w(grid_cfg(500, 250, 250, 1));  // 2x1 shards
  SimTime seen = SimTime::zero();
  w.shard(0).sched().schedule_at(SimTime::from_ms(30), [&w, &seen] {
    w.shard(0).post(1, [&seen](Shard& dst) { seen = dst.sched().now(); });
  });
  w.run_until(SimTime::from_ms(100));
  // Posted at t=30ms inside epoch [0, 100ms): handled at the boundary.
  EXPECT_EQ(seen, SimTime::from_ms(100));
  EXPECT_EQ(w.shard(1).messages_in(), 1u);
  EXPECT_EQ(w.messages(), 1u);
}

TEST(ShardedWorld, RejectsBadDestination) {
  ShardedWorld w(grid_cfg(300, 300, 100, 1));  // 3x3 shards
  w.shard(2).sched().schedule_at(SimTime::zero(), [&w] {
    // Outside the world.
    EXPECT_THROW(w.shard(2).post(99, [](Shard&) {}), std::out_of_range);
    // Inside it but not adjacent: two columns away, and shard 3, the next
    // id but the far end of the next row.
    EXPECT_THROW(w.shard(2).post(0, [](Shard&) {}), std::out_of_range);
    EXPECT_THROW(w.shard(2).post(3, [](Shard&) {}), std::out_of_range);
    EXPECT_NO_THROW(w.shard(2).post(4, [](Shard&) {}));
  });
  w.run_until(SimTime::from_ms(100));
  EXPECT_EQ(w.messages(), 1u);  // only the adjacent post was queued
}

/// True if `fn` throws a std::logic_error that is not a std::out_of_range
/// (the closed-post error, not a bad destination).
template <typename F>
bool throws_closed_post(F&& fn) {
  try {
    fn();
  } catch (const std::out_of_range&) {
    return false;
  } catch (const std::logic_error&) {
    return true;
  }
  return false;
}

TEST(ShardedWorld, OnlySchedulerEventsMayPost) {
  for (unsigned threads : {1u, 4u}) {
    ShardedWorld w(grid_cfg(500, 250, 250, threads));  // 2x1 shards
    // A delivery handler that posts: run_until rethrows the error.
    w.shard(0).sched().schedule_at(SimTime::from_ms(5), [&w] {
      w.shard(0).post(1, [](Shard& dst) { dst.post(0, [](Shard&) {}); });
    });
    EXPECT_TRUE(
        throws_closed_post([&w] { w.run_until(SimTime::from_ms(100)); }))
        << "threads=" << threads;
    // Nor may for_each_shard post.
    EXPECT_TRUE(throws_closed_post([&w] {
      w.for_each_shard([&w](std::size_t i) {
        const auto s = static_cast<std::uint32_t>(i);
        w.shard(s).post(s, [](Shard&) {});
      });
    })) << "threads=" << threads;

    // Both errors reopened posting: the world runs and posts normally.
    int handled = 0;
    w.shard(1).sched().schedule_at(SimTime::from_ms(150), [&w, &handled] {
      w.shard(1).post(0, [&handled](Shard&) { ++handled; });
    });
    w.run_until(SimTime::from_ms(300));
    EXPECT_EQ(handled, 1) << "threads=" << threads;
    EXPECT_EQ(w.now(), SimTime::from_ms(300));
    EXPECT_EQ(w.messages(), 2u);  // the throwing handler, then this one
  }
}

TEST(ShardedWorld, CanonicalMergeOrderAscendingSourceThenPostOrder) {
  // 3x3 grid; every shard (including the center itself) posts two tagged
  // messages to the center shard 4 during epoch 0. Arrival order must be
  // (source shard ascending, post order within source) regardless of
  // thread count.
  for (unsigned threads : {1u, 4u}) {
    ShardedWorld w(grid_cfg(300, 300, 100, threads));
    ASSERT_EQ(w.shard_count(), 9u);
    std::vector<int> arrivals;
    for (std::uint32_t s = 0; s < 9; ++s) {
      w.shard(s).sched().schedule_at(SimTime::from_ms(1), [&w, &arrivals, s] {
        for (int k = 0; k < 2; ++k) {
          const int tag = static_cast<int>(s) * 10 + k;
          w.shard(s).post(
              4, [&arrivals, tag](Shard&) { arrivals.push_back(tag); });
        }
      });
    }
    w.run_until(SimTime::from_ms(100));
    const std::vector<int> expect{0,  1,  10, 11, 20, 21, 30, 31, 40,
                                  41, 50, 51, 60, 61, 70, 71, 80, 81};
    EXPECT_EQ(arrivals, expect) << "threads=" << threads;
  }
}

TEST(ShardedWorld, PerShardRngMatchesForStream) {
  ShardedWorld w(grid_cfg(300, 300, 100, 1));
  for (std::uint32_t i = 0; i < w.shard_count(); ++i) {
    util::Rng expect = util::Rng::for_stream(42, i);
    EXPECT_EQ(w.shard(i).rng().next_u64(), expect.next_u64()) << "shard " << i;
  }
}

TEST(ShardedWorld, MergedMetricsEqualSingleRegistry) {
  ShardedWorld w(grid_cfg(300, 300, 100, 1));
  MetricsRegistry single;
  for (std::uint32_t i = 0; i < w.shard_count(); ++i) {
    w.shard(i).metrics().counter("events").inc(i + 1);
    w.shard(i).metrics().histogram("lat", 0.0, 100.0, 4).record(10.0 * i);
    single.counter("events").inc(i + 1);
    single.histogram("lat", 0.0, 100.0, 4).record(10.0 * i);
  }
  EXPECT_EQ(w.merged_metrics_json(), single.to_json());
}

TEST(ShardedWorld, EpochCountAndClockAdvance) {
  ShardedWorld w(grid_cfg(300, 300, 100, 1));
  w.run_until(SimTime::from_ms(250));
  // The final epoch clamps to `until` (Scheduler::run_until semantics), so
  // the world stops exactly at the requested horizon.
  EXPECT_EQ(w.now(), SimTime::from_ms(250));
  EXPECT_EQ(w.epochs(), 3u);  // [0,100) [100,200) [200,250)
  w.run_until(SimTime::from_ms(250));  // no-op: already there
  EXPECT_EQ(w.epochs(), 3u);
  w.run_until(SimTime::from_ms(300));
  EXPECT_EQ(w.now(), SimTime::from_ms(300));
  EXPECT_EQ(w.epochs(), 4u);
}

TEST(ShardedWorld, ForEachShardRunsEveryShardOnceBetweenEpochs) {
  ShardedWorld w(grid_cfg(300, 300, 100, 4));
  w.run_until(SimTime::from_ms(100));
  std::vector<int> hits(w.shard_count(), 0);
  w.for_each_shard([&](std::size_t i) {
    ++hits[i];
    w.shard(static_cast<std::uint32_t>(i)).metrics().counter("flush").inc(i);
  });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
            static_cast<std::ptrdiff_t>(w.shard_count()));
  MetricsRegistry merged;
  w.merge_metrics(merged);
  EXPECT_EQ(merged.counter_value("flush"), 36u);  // 0 + 1 + ... + 8
  EXPECT_EQ(w.epochs(), 1u);  // no epoch advanced
}

// ---------------------------------------------------------------------------
// MetroWorld (city model) — thread-count invariance

v2x::MetroConfig metro_cfg(unsigned threads) {
  v2x::MetroConfig cfg;
  cfg.vehicles = 3000;
  cfg.width_m = 3000;
  cfg.height_m = 3000;
  cfg.cell_m = 500;
  cfg.range_m = 300;
  cfg.threads = threads;
  cfg.seed = 7;
  cfg.pseudonym_period = util::SimTime::from_ms(900);
  // These tests exercise the sharded substrate at 3000 vehicles; modeled
  // crypto keeps them fast. RealCryptoDigestMatchesAcrossThreads below runs
  // the genuine pipeline on a smaller city.
  cfg.real_crypto = false;
  return cfg;
}

TEST(MetroWorld, DigestIsByteIdenticalAcrossThreadCounts) {
  v2x::MetroWorld one(metro_cfg(1));
  one.run_until(SimTime::from_s(2));
  const std::string d1 = one.digest_json();

  v2x::MetroWorld four(metro_cfg(4));
  four.run_until(SimTime::from_s(2));
  EXPECT_EQ(four.digest_json(), d1);

  // And the digest actually covers a busy simulation, not a trivial one.
  const auto t = one.totals();
  EXPECT_GT(t.bsm_tx, 10000u);
  EXPECT_GT(t.rx, t.bsm_tx);        // dense city: >1 receiver per tx
  EXPECT_GT(t.rx_cross, 0u);        // cross-shard spill exercised
  EXPECT_GT(t.migrations, 0u);      // vehicles crossed cells
  EXPECT_GT(t.rotations, 0u);       // pseudonym churn exercised
  EXPECT_GT(t.lost, 0u);            // channel loss exercised
}

TEST(MetroWorld, RunsAreReproducibleAndSeedSensitive) {
  v2x::MetroConfig cfg = metro_cfg(2);
  cfg.vehicles = 500;
  cfg.width_m = 1500;
  cfg.height_m = 1500;
  v2x::MetroWorld a(cfg), b(cfg);
  a.run_until(SimTime::from_s(1));
  b.run_until(SimTime::from_s(1));
  EXPECT_EQ(a.state_hash(), b.state_hash());
  EXPECT_EQ(a.digest_json(), b.digest_json());

  cfg.seed = 8;
  v2x::MetroWorld c(cfg);
  c.run_until(SimTime::from_s(1));
  EXPECT_NE(c.state_hash(), a.state_hash());
}

TEST(MetroWorld, VehicleCountIsConservedAcrossMigrations) {
  v2x::MetroConfig cfg = metro_cfg(2);
  cfg.vehicles = 800;
  cfg.width_m = 1500;
  cfg.height_m = 1500;
  v2x::MetroWorld m(cfg);
  m.run_until(SimTime::from_s(3));
  EXPECT_GT(m.totals().migrations, 0u);
  EXPECT_EQ(m.world().now(), SimTime::from_s(3));
  // Every vehicle is held by exactly one shard after the migrations: none
  // lost in transit, none duplicated.
  std::vector<int> seen(cfg.vehicles, 0);
  std::size_t count = 0;
  for (std::uint32_t s = 0; s < m.world().shard_count(); ++s) {
    for (const v2x::CityVehicle& v : m.vehicles(s)) {
      ASSERT_LT(v.id, cfg.vehicles);
      ++seen[v.id];
      ++count;
    }
  }
  EXPECT_EQ(count, cfg.vehicles);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(cfg.vehicles));
}

TEST(MetroWorld, LossSplitsInRangeReceptions) {
  // Each in-range receiver of a transmission, the sender excluded, costs
  // exactly one loss draw: raising loss_prob moves receptions from rx to
  // lost and changes nothing else the city does.
  struct Run {
    v2x::MetroWorld::Totals t;
    std::uint64_t hash;
  };
  const auto run = [](std::size_t vehicles, double loss) {
    v2x::MetroConfig cfg = metro_cfg(1);
    cfg.vehicles = vehicles;
    cfg.seed = 42;
    cfg.loss_prob = loss;
    v2x::MetroWorld m(cfg);
    m.run_until(SimTime::from_s(1));
    return Run{m.totals(), m.state_hash()};
  };
  const Run base = run(2000, 0.0);
  EXPECT_EQ(base.t.lost, 0u);
  EXPECT_GT(base.t.rx, base.t.bsm_tx);
  for (const double p : {0.02, 0.5, 1.0}) {
    const Run r = run(2000, p);
    EXPECT_EQ(r.t.rx + r.t.lost, base.t.rx) << "loss_prob " << p;
    EXPECT_LE(r.t.rx_cross, r.t.rx) << "loss_prob " << p;
    EXPECT_EQ(r.t.bsm_tx, base.t.bsm_tx) << "loss_prob " << p;
    EXPECT_EQ(r.hash, base.hash) << "loss_prob " << p;
    if (p == 1.0) {
      EXPECT_EQ(r.t.rx, 0u);
    } else {
      EXPECT_GT(r.t.lost, 0u) << "loss_prob " << p;
    }
  }
  // A lone vehicle transmits and nobody hears it: the sender is never its
  // own receiver, so it costs no draw either.
  for (const double p : {0.0, 1.0}) {
    const Run lone = run(1, p);
    EXPECT_GT(lone.t.bsm_tx, 0u);
    EXPECT_EQ(lone.t.rx, 0u) << "loss_prob " << p;
    EXPECT_EQ(lone.t.lost, 0u) << "loss_prob " << p;
  }
}

TEST(MetroWorld, RejectsCellSmallerThanRange) {
  v2x::MetroConfig cfg;
  cfg.cell_m = 100;
  cfg.range_m = 300;
  EXPECT_THROW(v2x::MetroWorld{cfg}, std::invalid_argument);
}

TEST(MetroWorld, RejectsSpeedThatCrossesTwoCellsBetweenTransmissions) {
  // Between two position updates a vehicle moves for at most one BSM
  // period plus one epoch in transit: 200 ms here, so 500 m cells bound
  // the speed below 2500 m/s, and every migration stays adjacent.
  v2x::MetroConfig cfg = metro_cfg(1);
  cfg.max_speed_mps = 2500;
  EXPECT_THROW(v2x::MetroWorld{cfg}, std::invalid_argument);
  cfg.max_speed_mps = 2499;
  EXPECT_NO_THROW(v2x::MetroWorld{cfg});
}

v2x::MetroConfig real_crypto_cfg(unsigned threads) {
  v2x::MetroConfig c;
  c.vehicles = 400;
  c.width_m = 1500;
  c.height_m = 1500;
  c.cell_m = 500;
  c.range_m = 300;
  c.threads = threads;
  c.seed = 11;
  c.pseudonym_period = util::SimTime::from_ms(700);
  c.real_crypto = true;
  c.crypto_batch = 32;
  return c;
}

TEST(MetroWorld, RealCryptoDigestMatchesAcrossThreads) {
  v2x::MetroWorld one(real_crypto_cfg(1));
  one.run_until(SimTime::from_s(1));
  const std::string d1 = one.digest_json();

  v2x::MetroWorld two(real_crypto_cfg(2));
  two.run_until(SimTime::from_s(1));
  EXPECT_EQ(two.digest_json(), d1);

  // Genuine crypto actually ran: signatures were produced, real batches
  // verified, the admission cache amortized repeat receptions, and every
  // honest beacon passed.
  const auto t = one.totals();
  EXPECT_GT(t.beacon_signs, 400u);     // >1 rotation each
  EXPECT_GT(t.verify_enqueued, 0u);
  EXPECT_GT(t.admit_hits, t.verify_enqueued);  // cache carries the load
  EXPECT_EQ(t.verify_fail, 0u);
  EXPECT_GT(t.rx_cross, 0u);  // spill path carried signatures too
}

/// Digest of `real_crypto_cfg(threads)` after ten one-epoch run_until calls
/// — the way a caller that samples every epoch drives the city. Each call
/// ends with the trailing flush of spill receptions, on the shard pool.
std::string stepped_real_crypto_digest(unsigned threads) {
  v2x::MetroWorld m(real_crypto_cfg(threads));
  for (int e = 1; e <= 10; ++e) m.run_until(SimTime::from_ms(100 * e));
  return m.digest_json();
}

TEST(MetroWorld, SteppedRealCryptoDigestIsPinned) {
  // Golden from the serial trailing flush (before it moved onto the shard
  // pool): flush points and order per shard are unchanged, so every byte
  // must be too.
  static const char kGolden[] =
      R"({"config":{"vehicles":400,"width_m":1500,"height_m":1500,"cell_m":500,)"
      R"("range_m":300,"loss_prob":0.02,"bsm_period_ns":100000000,"slots":5,)"
      R"("epoch_ns":100000000,"pseudonym_period_ns":700000000,"seed":11,)"
      R"("real_crypto":true},"shards":9,"epochs":10,"totals":{"bsm_tx":4080,)"
      R"("rx":168154,"rx_cross":55734,"lost":3529,"migrations":8,)"
      R"("rotations":535,"bytes_tx":1003680,"cross_msgs":8799,)"
      R"("beacon_signs":925,"admit_hits":165604,"verify_enqueued":2550,)"
      R"("verify_fail":0},"state_hash":"d1c97d5912c5360c","metrics":)"
      R"({"counters":{"city.bsm_tx":4080,"city.bytes_tx":1003680,)"
      R"("city.crypto.admit_hits":165604,"city.crypto.enqueued":2550,)"
      R"("city.crypto.signs":925,"city.crypto.verified_fail":0,)"
      R"("city.crypto.verified_ok":2550,"city.lost":3529,"city.migrations":8,)"
      R"("city.rotations":535,"city.rx":168154,"city.rx_cross":55734,)"
      R"("crypto.verify.batched":2405,"crypto.verify.cache_hits":0,)"
      R"("crypto.verify.calls":2550,"crypto.verify.evictions":0,)"
      R"("crypto.verify.primitive":2550},"gauges":{},"histograms":)"
      R"({"crypto.verify.batch_items":{"count":310,"sum":2405,"min":2,)"
      R"("max":32,"mean":7.75806,"p50":6.42487,"p95":33.1111,)"
      R"("p99":38.6222}}}})";
  const std::string d1 = stepped_real_crypto_digest(1);
  EXPECT_EQ(stepped_real_crypto_digest(4), d1);
  EXPECT_EQ(d1, kGolden);
}

TEST(MetroWorld, RealCryptoQueuesEachBeaconOncePerShard) {
  // Repeat receptions of a (sender, rotation) beacon resolve at admission,
  // including those that arrive while its check is still pending: every
  // queued check reaches the signature primitive, and the engine's own
  // result cache and in-burst dedup never see a duplicate.
  v2x::MetroWorld m(real_crypto_cfg(2));
  m.run_until(SimTime::from_s(1));
  sim::MetricsRegistry merged;
  m.world().merge_metrics(merged);
  const auto t = m.totals();
  EXPECT_GT(t.verify_enqueued, 0u);
  EXPECT_EQ(merged.counter_value("crypto.verify.primitive"), t.verify_enqueued);
  EXPECT_EQ(merged.counter_value("crypto.verify.cache_hits"), 0u);
  EXPECT_EQ(t.rx, t.admit_hits + t.verify_enqueued);
}

TEST(MetroWorld, BeaconIssuanceAndDigestArePure) {
  const auto b1 = v2x::MetroWorld::issue_beacon(7, 2, 99);
  const auto b2 = v2x::MetroWorld::issue_beacon(7, 2, 99);
  EXPECT_EQ(b1.rotation, 2u);
  EXPECT_EQ(b1.cert, b2.cert);
  EXPECT_EQ(b1.sig, b2.sig);
  // A new rotation (or another vehicle) gets a new certificate.
  EXPECT_NE(v2x::MetroWorld::issue_beacon(7, 3, 99).cert, b1.cert);
  EXPECT_NE(v2x::MetroWorld::issue_beacon(8, 2, 99).cert, b1.cert);
  const auto d = v2x::MetroWorld::beacon_digest(7, 2, 99);
  EXPECT_EQ(d, v2x::MetroWorld::beacon_digest(7, 2, 99));
  EXPECT_NE(d, v2x::MetroWorld::beacon_digest(7, 2, 100));
  // The certificate names the metro CA and the pseudonym, and the key it
  // reconstructs to (certificate bytes + CA key alone) verifies the beacon.
  v2x::MetroConfig cfg = real_crypto_cfg(1);
  const v2x::MetroWorld m(cfg);
  const auto cert = crypto::ecqv::ImplicitCert::parse(b1.cert);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->issuer, crypto::ecqv::issuer_id(m.ca_key()));
  EXPECT_EQ(cert->subject, (std::uint64_t{2} << 32) | 99u);
  const auto q = crypto::ecqv::reconstruct(b1.cert, m.ca_key());
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(crypto::ecdsa_verify_digest_slow(*q, d, b1.sig));
  EXPECT_FALSE(crypto::ecdsa_verify_digest_slow(
      *q, v2x::MetroWorld::beacon_digest(7, 2, 100), b1.sig));
}

TEST(MetroWorld, HonestReceiverRebuildsEveryKeyFromCertificateAndCa) {
  // Every beacon a shard can admit is in the table; each one's key comes
  // back from its certificate bytes and the CA's public key alone, and
  // verifies the beacon on the reference verifier.
  v2x::MetroWorld m(real_crypto_cfg(2));
  m.run_until(SimTime::from_s(1));
  const auto t = m.totals();
  EXPECT_EQ(t.verify_fail, 0u);
  std::size_t checked = 0;
  for (std::uint32_t s = 0; s < m.world().shard_count(); ++s) {
    for (const v2x::CityVehicle& v : m.vehicles(s)) {
      for (std::uint32_t r = v.rotations > 0 ? v.rotations - 1 : 0;
           r <= v.rotations; ++r) {
        const v2x::MetroWorld::Beacon* b = m.beacon(v.id, r);
        if (!b) continue;
        const auto q = crypto::ecqv::reconstruct(b->cert, m.ca_key());
        ASSERT_TRUE(q.has_value()) << "vehicle " << v.id;
        EXPECT_TRUE(crypto::ecdsa_verify_digest_slow(
            *q,
            v2x::MetroWorld::beacon_digest(
                v.id, r, v2x::MetroWorld::temp_id_for(v.id, r)),
            b->sig))
            << "vehicle " << v.id << " rotation " << r;
        ++checked;
      }
    }
  }
  // Each vehicle signed its current rotation (every vehicle transmits
  // within 100 ms of a rotation) and most also hold the previous one.
  EXPECT_GE(checked, real_crypto_cfg(1).vehicles);
  EXPECT_EQ(m.beacon(0, 1000), nullptr);
}

TEST(MetroWorld, RejectsPseudonymPeriodShorterThanTwoEpochs) {
  // The beacon slot of rotation r is rewritten by rotation r + 2; with a
  // period under two epochs that could race a neighbour's read.
  v2x::MetroConfig cfg = real_crypto_cfg(1);
  cfg.pseudonym_period = util::SimTime::from_ms(199);
  EXPECT_THROW(v2x::MetroWorld{cfg}, std::invalid_argument);
  cfg.pseudonym_period = util::SimTime::from_ms(200);
  EXPECT_NO_THROW(v2x::MetroWorld{cfg});
}

TEST(MetroWorld, TempIdDerivationIsPure) {
  EXPECT_EQ(v2x::MetroWorld::temp_id_for(12, 3), v2x::MetroWorld::temp_id_for(12, 3));
  EXPECT_NE(v2x::MetroWorld::temp_id_for(12, 3), v2x::MetroWorld::temp_id_for(12, 4));
  EXPECT_NE(v2x::MetroWorld::temp_id_for(12, 3), v2x::MetroWorld::temp_id_for(13, 3));
}

}  // namespace
}  // namespace aseck::sim
