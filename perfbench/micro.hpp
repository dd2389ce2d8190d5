#pragma once
// Inputs and per-layer measurements shared by several workloads: the
// signature corpus, the OTA repositories and firmware images, the
// micro-timings every traced run reports, verify-engine counters, and
// per-layer self-time shares from the trace.

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "crypto/ecdsa.hpp"
#include "ota/repository.hpp"
#include "sim/telemetry.hpp"

namespace perfbench {

/// One corpus entry: a distinct pseudonym key, a digest and its signature.
struct SignedItem {
  crypto::EcdsaPublicKey pub;
  crypto::Digest digest{};
  crypto::EcdsaSignature sig;
};

/// Items [0, forged.size()) of the seed's corpus, built on `threads`
/// threads. Item i's key and digest are pure functions of (seed, i), so a
/// corpus's first items are the same whatever its length. A forged item
/// carries a valid signature over a different digest, so its correct
/// verdict is false by construction.
std::vector<SignedItem> make_items(std::uint64_t seed,
                                   const std::vector<char>& forged,
                                   unsigned threads);

inline constexpr std::size_t kImageBytes = 64 * 1024;
inline constexpr std::size_t kChunkBytes = 16 * 1024;

/// Director and image repositories publishing one 64 KiB update ("vecu-fw"
/// v2) over the installed image `base`; only one 4 KiB region differs, so
/// delta-encoded chunks collapse to the diff.
struct OtaRepos {
  explicit OtaRepos(std::uint64_t seed);
  crypto::Drbg rng;
  ota::Repository director, images;
  util::Bytes base, next;
};

/// The micro-timings of every traced run, under one "perfbench::micro"
/// span: crypto.* (batch kernel at 8/64/256, MSM, decompression, mod-n and
/// mod-p arithmetic, key generation, signing, single verify, SHA-256) on a
/// 512-item honest slice of the seed's corpus, and the storage path
/// (ota.repository.snapshot_us, ecu.flash.stage_us_per_chunk,
/// util.crc32_us.4KiB) on the seed's OTA image.
void run_micro(std::uint64_t seed, Tracer& tr, Report& rep);

/// crypto.verify.cache_hit_ratio and crypto.batch_items.{p50,p99} from a
/// registry that VerifyEngines export into.
void report_verify_counters(const sim::MetricsRegistry& reg, Report& rep);

/// sim.epoch_ms.{p50,p90,p99}: host time of the window's closed-loop steps,
/// each standing for one 100 ms epoch of simulated time.
void report_epoch_times(const std::vector<double>& step_ms, Report& rep);

/// trace.self_share.<layer>: each layer's self time over the timed window
/// (the "perfbench::window" span), as a share of the window.
void report_self_shares(const Tracer& tr, Report& rep);

inline constexpr int kMicroRounds = 7;

/// Per-operation time in microseconds of one call of `fn`, which performs
/// `ops` operations inside one span.
template <class Fn>
double time_once_us(Tracer& tr, const char* name, const char* layer,
                    std::size_t ops, Fn&& fn) {
  const auto t0 = Clock::now();
  {
    auto s = tr.span(name, layer);
    fn();
  }
  return seconds_since(t0) * 1e6 / static_cast<double>(ops);
}

/// Median of time_once_us over kMicroRounds rounds.
template <class Fn>
double time_per_op_us(Tracer& tr, const char* name, const char* layer,
                      std::size_t ops, Fn&& fn) {
  std::vector<double> per_op;
  for (int r = 0; r < kMicroRounds; ++r) {
    per_op.push_back(time_once_us(tr, name, layer, ops, fn));
  }
  return median(per_op);
}

}  // namespace perfbench
