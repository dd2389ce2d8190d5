#include "micro.hpp"

#include <cstring>
#include <string>
#include <thread>

#include "crypto/batch_verify.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"
#include "ecu/flash.hpp"
#include "util/crc.hpp"

namespace perfbench {
namespace {

crypto::Digest tagged_hash(std::uint64_t seed, std::uint64_t i, const char* tag) {
  std::uint8_t buf[16 + 32] = {};
  for (int b = 0; b < 8; ++b) {
    buf[b] = static_cast<std::uint8_t>(seed >> (8 * b));
    buf[8 + b] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  const std::size_t n = std::strlen(tag);
  std::memcpy(buf + 16, tag, n);
  return crypto::sha256(util::BytesView(buf, 16 + n));
}

crypto::Digest item_digest(std::uint64_t seed, std::uint64_t i) {
  return tagged_hash(seed, i, "perfbench.msg");
}

crypto::EcdsaPrivateKey item_key(std::uint64_t seed, std::uint64_t i) {
  const crypto::Digest secret = tagged_hash(seed, i, "perfbench.key");
  return crypto::EcdsaPrivateKey::from_secret(
      util::BytesView(secret.data(), secret.size()));
}

util::Bytes base_image(std::uint64_t seed) {
  util::Bytes b(kImageBytes);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + seed) & 0xFF);
  }
  return b;
}

util::Bytes next_image(std::uint64_t seed) {
  util::Bytes b = base_image(seed);
  for (std::size_t i = 24 * 1024; i < 28 * 1024; ++i) b[i] ^= 0xA5;
  return b;
}

}  // namespace

OtaRepos::OtaRepos(std::uint64_t seed)
    : rng{seed},
      director(rng, "director", util::SimTime::from_s(360000)),
      images(rng, "image-repo", util::SimTime::from_s(360000)),
      base(base_image(seed)),
      next(next_image(seed)) {
  director.add_target("vecu-fw", next, 2, "vecu-hw");
  images.add_target("vecu-fw", next, 2, "vecu-hw");
  director.publish(util::SimTime::from_ms(1));
  images.publish(util::SimTime::from_ms(1));
}

std::vector<SignedItem> make_items(std::uint64_t seed,
                                   const std::vector<char>& forged,
                                   unsigned threads) {
  std::vector<SignedItem> items(forged.size());
  auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const crypto::EcdsaPrivateKey key = item_key(seed, i);
      SignedItem& it = items[i];
      it.pub = key.public_key();
      it.digest = item_digest(seed, i);
      it.sig = key.sign_digest(forged[i] ? crypto::sha256(it.digest) : it.digest);
    }
  };
  crypto::p256::init_fixed_base_tables();  // build once, before the workers
  std::vector<std::thread> workers;
  const std::size_t n = items.size();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back(fill, n * t / threads, n * (t + 1) / threads);
  }
  for (std::thread& w : workers) w.join();
  return items;
}

namespace {

void crypto_micro(std::uint64_t seed, Tracer& tr, Report& rep) {
  constexpr std::size_t kItems = 512;
  const std::vector<SignedItem> items =
      make_items(seed, std::vector<char>(kItems, 0), kThreads);
  std::vector<crypto::BatchVerifyItem> batch;
  for (const SignedItem& it : items) batch.push_back({&it.pub, it.digest, &it.sig});

  // ecdsa_verify_batch on fixed-size slices of the corpus, and the batch
  // kernel's MSM on 2N+1 terms (N signatures' Q and R points). The sizes
  // alternate within each round, so host noise hits every size alike and
  // the comparison between sizes stays fair.
  bool all_valid = true;
  std::vector<crypto::p256::MultiScalarTerm> terms;
  for (const SignedItem& it : items) {
    const auto r_point = crypto::p256::decompress(it.sig.r, it.sig.r_parity == 1);
    all_valid = all_valid && r_point.has_value();
    terms.push_back({it.sig.r, it.pub.point});
    terms.push_back({it.sig.s, r_point.value_or(it.pub.point)});
  }
  constexpr std::size_t kBatchSizes[] = {8, 64, 256};
  constexpr std::size_t kMsmSizes[] = {64, 256};
  std::vector<double> batch_us[3], msm_us[2];
  for (int r = 0; r < kMicroRounds; ++r) {
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t b = kBatchSizes[k];
      batch_us[k].push_back(time_once_us(tr, "crypto::ecdsa_verify_batch", "crypto",
                                         kItems, [&] {
        for (std::size_t lo = 0; lo < kItems; lo += b) {
          const std::vector<crypto::BatchVerifyItem> slice(batch.begin() + lo,
                                                           batch.begin() + lo + b);
          for (bool ok : crypto::ecdsa_verify_batch(slice)) all_valid = all_valid && ok;
        }
      }));
    }
    for (std::size_t k = 0; k < 2; ++k) {
      const std::vector<crypto::p256::MultiScalarTerm> t(
          terms.begin(), terms.begin() + 2 * kMsmSizes[k] + 1);
      msm_us[k].push_back(time_once_us(tr, "crypto::p256::multi_scalar_mult", "crypto",
                                       t.size(), [&] {
        (void)crypto::p256::multi_scalar_mult(items[0].sig.s, t);
      }));
    }
  }
  for (std::size_t k = 0; k < 3; ++k) {
    rep.metric("crypto.us_per_sig.b" + std::to_string(kBatchSizes[k]),
               median(batch_us[k]), "us");
  }
  for (std::size_t k = 0; k < 2; ++k) {
    rep.metric("crypto.msm_us_per_term.b" + std::to_string(kMsmSizes[k]),
               median(msm_us[k]), "us");
  }

  rep.metric("crypto.decompress_us",
             time_per_op_us(tr, "crypto::p256::decompress", "crypto", kItems, [&] {
               for (const SignedItem& it : items) {
                 all_valid = all_valid &&
                             crypto::p256::decompress(it.sig.r, it.sig.r_parity == 1)
                                 .has_value();
               }
             }),
             "us");

  // mod-n arithmetic on the signatures' s values: a running product, and
  // inverses checked afterwards (s * s^-1 == 1).
  const crypto::U256& n = crypto::p256::N();
  constexpr std::size_t kMulReps = 20;
  crypto::U256 product = crypto::U256::one();
  rep.metric("crypto.mul_mod_n_ns",
             1e3 * time_per_op_us(tr, "crypto::mul_mod", "crypto",
                                  kMulReps * kItems, [&] {
               for (std::size_t r = 0; r < kMulReps; ++r) {
                 for (const SignedItem& it : items) {
                   product = crypto::mul_mod(product, it.sig.s, n);
                 }
               }
             }),
             "ns");
  all_valid = all_valid && !(product == crypto::U256::zero());
  std::vector<crypto::U256> inverses(kItems);
  rep.metric("crypto.inv_mod_n_us",
             time_per_op_us(tr, "crypto::inv_mod_prime", "crypto", kItems, [&] {
               for (std::size_t i = 0; i < kItems; ++i) {
                 inverses[i] = crypto::inv_mod_prime(items[i].sig.s, n);
               }
             }),
             "us");
  for (std::size_t i = 0; i < kItems; ++i) {
    all_valid = all_valid &&
                crypto::mul_mod(inverses[i], items[i].sig.s, n) == crypto::U256::one();
  }

  std::vector<crypto::p256::JacobianPoint> jac;
  for (const SignedItem& it : items) {
    jac.push_back(crypto::p256::scalar_mult_base(it.sig.s));
  }
  rep.metric("crypto.to_affine_us",
             time_per_op_us(tr, "crypto::p256::to_affine", "crypto", kItems, [&] {
               for (const auto& p : jac) {
                 all_valid =
                     all_valid && crypto::p256::on_curve(crypto::p256::to_affine(p));
               }
             }),
             "us");

  // Key generation, signing and single verification of the first items:
  // nonces are deterministic, so re-signing reproduces the corpus signature.
  constexpr std::size_t kKeyOps = 128;
  std::vector<crypto::EcdsaPrivateKey> keys;
  rep.metric("crypto.keygen_us",
             time_per_op_us(tr, "crypto::EcdsaPrivateKey::from_secret", "crypto",
                            kKeyOps, [&] {
               keys.clear();
               for (std::size_t i = 0; i < kKeyOps; ++i) {
                 keys.push_back(item_key(seed, i));
               }
             }),
             "us");
  for (std::size_t i = 0; i < kKeyOps; ++i) {
    all_valid = all_valid && keys[i].public_key() == items[i].pub;
  }
  rep.metric("crypto.sign_us",
             time_per_op_us(tr, "crypto::EcdsaPrivateKey::sign_digest", "crypto",
                            kKeyOps, [&] {
               for (std::size_t i = 0; i < kKeyOps; ++i) {
                 all_valid =
                     all_valid && keys[i].sign_digest(items[i].digest) == items[i].sig;
               }
             }),
             "us");
  rep.metric("crypto.verify_single_us",
             time_per_op_us(tr, "crypto::ecdsa_verify_digest", "crypto", kKeyOps, [&] {
               for (std::size_t i = 0; i < kKeyOps; ++i) {
                 const SignedItem& it = items[i];
                 all_valid =
                     all_valid && crypto::ecdsa_verify_digest(it.pub, it.digest, it.sig);
               }
             }),
             "us");

  for (const std::size_t len : {64u, 16384u}) {
    const util::Bytes buf(len, static_cast<std::uint8_t>(seed));
    const crypto::Digest want = crypto::sha256(buf);
    const std::size_t reps = len == 64 ? 20000 : 200;
    rep.metric(len == 64 ? "crypto.sha256_us.64B" : "crypto.sha256_us.16KiB",
               time_per_op_us(tr, "crypto::sha256", "crypto", reps, [&] {
                 for (std::size_t r = 0; r < reps; ++r) {
                   all_valid = all_valid && crypto::sha256(buf) == want;
                 }
               }),
               "us");
  }
  rep.gate(all_valid, "crypto micro-benchmark produced a wrong result");
}

void storage_micro(std::uint64_t seed, Tracer& tr, Report& rep) {
  const OtaRepos repos(seed);
  constexpr std::size_t kSnapshots = 20000;
  std::size_t targets = 0;
  rep.metric("ota.repository.snapshot_us",
             time_per_op_us(tr, "ota::Repository::snapshot", "ota", kSnapshots, [&] {
               for (std::size_t i = 0; i < kSnapshots; ++i) {
                 targets += repos.director.snapshot()->targets.body.targets.size();
               }
             }),
             "us");

  // Journaled staging of the update, chunk by chunk, each install on a
  // freshly provisioned device.
  const crypto::Digest digest = crypto::sha256(repos.next);
  const ecu::Flash::StageRequest req{"vecu-fw", 2, repos.next.size(),
                                     util::Bytes(digest.begin(), digest.end())};
  constexpr std::size_t kInstallsPerRound = 4;
  std::vector<ecu::Flash> devices(kInstallsPerRound * kMicroRounds);
  for (ecu::Flash& f : devices) {
    f.provision(ecu::FirmwareImage{"vecu-fw", 1, repos.base});
  }
  bool ok = true;
  std::size_t next_device = 0;
  rep.metric("ecu.flash.stage_us_per_chunk",
             time_per_op_us(tr, "ecu::Flash::stage", "ecu",
                            kInstallsPerRound * kImageBytes / kChunkBytes, [&] {
               for (std::size_t k = 0; k < kInstallsPerRound; ++k) {
                 ecu::Flash& f = devices[next_device++];
                 ok = ok && f.stage_begin(req);
                 for (std::size_t off = 0; off < kImageBytes; off += kChunkBytes) {
                   ok = ok && f.stage_write(util::BytesView(repos.next).subspan(
                                  off, kChunkBytes)) == ecu::FlashWrite::kOk;
                 }
                 ok = ok && f.stage_finish() == ecu::FlashWrite::kOk;
               }
             }),
             "us");

  const util::BytesView page =
      util::BytesView(repos.next).first(ecu::Flash::kPageSize);
  const std::uint32_t crc = util::crc32_ieee(page);
  constexpr std::size_t kCrcReps = 2000;
  rep.metric("util.crc32_us.4KiB",
             time_per_op_us(tr, "util::crc32_ieee", "util", kCrcReps, [&] {
               for (std::size_t i = 0; i < kCrcReps; ++i) {
                 ok = ok && util::crc32_ieee(page) == crc;
               }
             }),
             "us");
  rep.gate(ok && targets == kSnapshots * kMicroRounds,
           "storage micro-benchmark produced a wrong result");
}

}  // namespace

void run_micro(std::uint64_t seed, Tracer& tr, Report& rep) {
  auto root = tr.span("perfbench::micro", "bench");
  crypto_micro(seed, tr, rep);
  storage_micro(seed, tr, rep);
}

void report_verify_counters(const sim::MetricsRegistry& reg, Report& rep) {
  const auto calls = static_cast<double>(reg.counter_value("crypto.verify.calls"));
  const auto hits = static_cast<double>(reg.counter_value("crypto.verify.cache_hits"));
  rep.metric("crypto.verify.cache_hit_ratio", calls > 0 ? hits / calls : 0.0, "ratio");
  const sim::LatencyHistogram* h = reg.find_histogram("crypto.verify.batch_items");
  rep.metric("crypto.batch_items.p50", h ? h->percentile(50) : 0.0, "count");
  rep.metric("crypto.batch_items.p99", h ? h->percentile(99) : 0.0, "count");
}

void report_epoch_times(const std::vector<double>& step_ms, Report& rep) {
  rep.metric("sim.epoch_ms.p50", percentile(step_ms, 50), "ms");
  rep.metric("sim.epoch_ms.p90", percentile(step_ms, 90), "ms");
  rep.metric("sim.epoch_ms.p99", percentile(step_ms, 99), "ms");
}

void report_self_shares(const Tracer& tr, Report& rep) {
  const std::int32_t root = tr.find_root("perfbench::window");
  if (root < 0) return;
  const Tracer::Span& w = tr.spans()[root];
  const double window_us = w.end_us - w.start_us;
  for (const char* layer : {"bench", "sim", "v2x", "crypto", "ota", "ecu"}) {
    rep.metric(std::string("trace.self_share.") + layer,
               window_us > 0 ? tr.self_us(root, layer) / window_us : 0.0, "ratio");
  }
}

}  // namespace perfbench
