#pragma once
// City-scale V2X metro simulation on the sharded world (E19).
//
// `MetroWorld` scales the V2X workload of net.hpp to 100k+ vehicles by
// running on `sim::ShardedWorld`: vehicles live in the
// shard that owns their position, BSM broadcast and reception happen
// shard-locally through the shard-cell geometry (cell edge >= radio
// range), and two kinds of cross-shard traffic ride the epoch batches:
//
//  * BSM spill — a transmission whose range circle overlaps an adjacent
//    cell posts one message per overlapped neighbor; the receiving shard
//    scans its own vehicles next epoch (reception is delayed by up to one
//    epoch across a cell boundary — the conservative-sync lookahead).
//  * Migration — a vehicle that crosses a cell boundary is removed from
//    its shard on its transmit tick and arrives in the destination shard's
//    vehicle list at the epoch boundary (it misses exactly one of its own
//    BSM ticks in transit).
//
// Both are posted from the shard's tick event, to an adjacent cell, for
// the next boundary: the only messages sim/sharded.hpp's world carries.
// The constructor keeps them adjacent: it requires cell_m >= range_m for
// spills, and max_speed_mps * (bsm_period + epoch) < cell_m so that no
// vehicle crosses more than one cell between two position updates.
//
// Pseudonym churn (the Yoshizawa et al. workload): each vehicle rotates
// its temp id on a fixed period with per-vehicle phase; new ids derive
// from (vehicle id, rotation count) alone, so rotation is stable across
// shard layouts and thread counts.
//
// Reception is a count. A transmission's scan of a shard first counts the
// receivers in range (the sender excluded), then makes one channel-loss
// draw per counted receiver from the *receiving* shard's RNG stream; only
// the delivered and lost counts leave the scan. Determinism rests on the
// number of draws per transmission and the order of transmissions in the
// shard, not on the order in which the scan visits receivers, so it holds
// for any thread count.
//
// Crypto comes in two modes. With `real_crypto` off (the default), crypto
// cost is pure accounting: callers price the reception counts after the
// fact with E17's measured per-verify latency (`VehicleNode::kVerifyCostUs`).
// With `real_crypto` on, every reception goes through genuine ECDSA-P256
// admission on the shard's batch verify pipeline (E22), under IEEE 1609.2 /
// SCMS-style ECQV implicit pseudonym certificates (crypto/ecqv.hpp):
//
//  * Signer side. The metro has one pseudonym CA, whose private scalar
//    derives from a fixed tag and never leaves citynet.cpp. On a vehicle's
//    first transmit after each rotation, the shard holding it issues the
//    rotation's certificate (P_U = k*G, one comb, k derived from (id,
//    rotation)) and signs the beacon (id, rotations, temp_id) with the
//    certified key d_U = e*k + d_CA mod n (`issue_beacon`).
//  * Beacon table. The signed beacon (certificate + signature) goes into a
//    per-vehicle table of two slots, slot `rotation & 1`; vehicle records
//    and spill messages carry only (id, rotation, temp_id). Slot rule (the
//    table's part of sim/sharded.hpp's determinism contract): a slot is
//    written only by the shard holding the vehicle, in the epoch it signs;
//    other shards read it only in later epochs, through spills delivered
//    after the barrier and the flushes that follow; and the constructor
//    requires pseudonym_period >= 2 * epoch, so the slot of rotation r is
//    rewritten (by rotation r + 2) only after every read of rotation r is
//    over. A reader checks that the slot holds the rotation it expects and
//    throws std::logic_error otherwise.
//  * Receiver side. Each shard verifies each (sender, rotation) beacon
//    once: its admission cache holds every key that is admitted or has a
//    check pending, so a repeat reception — even one that arrives before
//    the pending batch flushes — resolves without queuing another check.
//    The first reception queues (key, temp_id). At the flush into the
//    shard's `VerifyEngine` RLC batch, the receiver reads the certificate
//    and signature from the table and knows nothing else: P_U comes from
//    decompressing the certificate, e from hashing it, and the batch folds
//    Q = e*P_U + Q_CA into its check, with one merged Q_CA term per flush.
//    Shards flush at the batch target, at the end of each tick, and at the
//    end of `run_until`; that last, trailing flush drains the spill
//    receptions neighbours admitted at the final epoch boundary and runs on
//    the shard pool (`ShardedWorld::for_each_shard`).
//
// Certificates, signatures, and flush points are all pure functions of the
// workload, so the digest stays bit-identical across thread counts; no
// digest or state hash sees key material.
//
// Everything observable — per-shard metrics, merged totals, and the FNV
// state hash over final vehicle states — is bit-identical between a
// 1-thread and an N-thread run of the same seed (`digest_json`, diffed
// byte-for-byte in CI).

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "crypto/ecqv.hpp"
#include "crypto/verify_engine.hpp"
#include "sim/sharded.hpp"
#include "util/lru.hpp"

namespace aseck::v2x {

struct MetroConfig {
  std::size_t vehicles = 100000;
  double width_m = 20000.0;
  double height_m = 20000.0;
  /// Shard cell edge; must be >= range_m so spill only reaches the 8
  /// adjacent cells, and > max_speed_mps * (bsm_period + epoch) so
  /// migration does too.
  double cell_m = 500.0;
  double range_m = 300.0;
  /// Per-reception channel loss probability: one draw per in-range
  /// receiver, from the receiving shard's RNG.
  double loss_prob = 0.02;
  util::SimTime bsm_period = util::SimTime::from_ms(100);
  /// Transmit phases within a BSM period (spreads events in sim time).
  unsigned slots = 5;
  util::SimTime epoch = util::SimTime::from_ms(100);
  /// Must be >= 2 * epoch (the beacon table's slot rule).
  util::SimTime pseudonym_period = util::SimTime::from_s(5);
  double min_speed_mps = 3.0;
  double max_speed_mps = 25.0;
  unsigned threads = 1;
  std::uint64_t seed = 42;
  /// Modeled wire size of a signed BSM (payload + 1609.2 header + implicit
  /// cert + ECDSA signature) for bytes-per-vehicle accounting.
  std::size_t bsm_wire_bytes = 246;
  /// Run genuine ECDSA-P256 on the receive path: per-(vehicle, rotation)
  /// implicit pseudonym certificates and beacon signatures, one shard-local
  /// admission check per (sender, rotation), and the E22 RLC batch kernel
  /// for those checks.
  bool real_crypto = false;
  /// Target RLC batch per shard; pending checks flush when this many
  /// accumulate (and at every tick / end of run).
  std::size_t crypto_batch = 64;
};

/// One simulated vehicle. POD by design: it migrates between shards inside
/// a cross-shard message's inline payload (64 bytes; its signed beacon
/// lives in MetroWorld's beacon table).
struct CityVehicle {
  std::uint64_t id = 0;
  double x = 0, y = 0;    // position at time t0
  double vx = 0, vy = 0;  // straight segments, wall bounce on tick
  util::SimTime t0;
  std::uint32_t temp_id = 0;
  std::uint32_t rotations = 0;
  util::SimTime next_rotation;
};

class MetroWorld {
 public:
  explicit MetroWorld(MetroConfig cfg);
  ~MetroWorld();

  /// Advances the whole metro to sim time `until` (epoch barriers inside).
  void run_until(util::SimTime until);

  sim::ShardedWorld& world() { return *world_; }
  const MetroConfig& config() const { return cfg_; }

  struct Totals {
    std::uint64_t bsm_tx = 0;
    std::uint64_t rx = 0;        // delivered receptions (incl. cross)
    std::uint64_t rx_cross = 0;  // receptions via cross-shard spill
    std::uint64_t lost = 0;      // channel-loss suppressions
    std::uint64_t migrations = 0;
    std::uint64_t rotations = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t cross_msgs = 0;  // epoch-batch messages handled
    // Real-crypto mode only (zero otherwise).
    std::uint64_t beacon_signs = 0;    // one per (vehicle, rotation) that tx'd
    std::uint64_t admit_hits = 0;      // receptions of an admitted/pending key
    std::uint64_t verify_enqueued = 0; // receptions that queued a real verify
    std::uint64_t verify_fail = 0;     // must stay 0 (honest senders only)
  };
  /// Deterministic merged totals (ascending shard id).
  Totals totals() const;

  /// The vehicles shard `shard` holds now (read-only; not part of the
  /// digest beyond `state_hash`).
  const std::vector<CityVehicle>& vehicles(std::uint32_t shard) const {
    return locals_[shard].vehicles;
  }

  /// FNV-1a over every shard's vehicle list in canonical order — a cheap
  /// whole-state fingerprint for determinism diffs.
  std::uint64_t state_hash() const;

  /// Canonical JSON digest of config (minus threads), totals, state hash,
  /// and the merged metrics registry. Byte-identical across thread counts
  /// for a fixed seed; contains no wall-clock quantities.
  std::string digest_json() const;

  /// Model-state memory per vehicle in bytes: vehicle records, the beacon
  /// table (real-crypto mode), and the epoch mailboxes' capacity (excludes
  /// allocator overhead; not part of any digest).
  double bytes_per_vehicle() const;

  /// One rotation's signed beacon: the vehicle's ECQV pseudonym
  /// certificate and its signature over `beacon_digest`.
  struct Beacon {
    static constexpr std::uint32_t kNone = 0xffffffffu;
    std::uint32_t rotation = kNone;  // kNone: slot never written
    crypto::EcdsaSignature sig;
    crypto::ecqv::ImplicitCert::Encoding cert{};
  };

  /// Signer side: issues vehicle `id`'s rotation pseudonym certificate from
  /// the metro pseudonym CA and signs the rotation beacon with the
  /// certified key. A pure function of its arguments; the CA's and the
  /// vehicle's private scalars never leave it.
  static Beacon issue_beacon(std::uint64_t id, std::uint32_t rotation,
                             std::uint32_t temp_id);
  /// The pseudonym CA's public key: the receivers' only trust anchor.
  const crypto::EcdsaPublicKey& ca_key() const { return ca_key_; }
  /// The table's signed beacon of (id, rotation), or nullptr if the slot
  /// holds no beacon of that rotation (always nullptr with real_crypto
  /// off). Callers outside the shards read it between run_until calls.
  const Beacon* beacon(std::uint64_t id, std::uint32_t rotation) const;

  /// Derives the rotation-r temp id of vehicle `id` (pure function).
  static std::uint32_t temp_id_for(std::uint64_t id, std::uint32_t rotation);
  /// SHA-256 of the rotation beacon (id, rotations, temp_id) — what
  /// `Beacon::sig` signs.
  static crypto::Digest beacon_digest(std::uint64_t id, std::uint32_t rotation,
                                      std::uint32_t temp_id);

 private:
  /// Per-shard bound on the admission cache (the engine's default
  /// verify-result cache size).
  static constexpr std::size_t kAdmissionCapacity =
      crypto::VerifyEngine::kDefaultCacheCapacity;

  struct ShardCrypto {
    crypto::VerifyEngine engine;
    /// (sender, rotation) beacons this shard has admitted or has a check
    /// pending for, keyed (id << 32) | rotation: the shard's only dedup of
    /// repeat receptions.
    util::LruCache<std::uint64_t, char> admission{kAdmissionCapacity};
    struct PendingItem {
      std::uint64_t key;  // (id << 32) | rotation
      std::uint32_t temp_id;
    };
    std::vector<PendingItem> pending;
    sim::Counter* signs = nullptr;
    sim::Counter* admit_hits = nullptr;
    sim::Counter* enqueued = nullptr;
    sim::Counter* verified_ok = nullptr;
    sim::Counter* verified_fail = nullptr;
  };

  struct ShardLocal {
    std::vector<CityVehicle> vehicles;
    sim::Counter* bsm_tx = nullptr;
    sim::Counter* rx = nullptr;
    sim::Counter* rx_cross = nullptr;
    sim::Counter* lost = nullptr;
    sim::Counter* migrations = nullptr;
    sim::Counter* rotations = nullptr;
    sim::Counter* bytes_tx = nullptr;
    std::uint64_t tick = 0;
    std::unique_ptr<ShardCrypto> crypto;  // real_crypto mode only
  };

  void tick(std::uint32_t shard_index);
  void send_bsm(sim::Shard& shard, ShardLocal& local, const CityVehicle& v);
  /// Counts the receptions in `local` of one transmission from (sx, sy):
  /// in-range receivers other than the sender, less one loss draw each.
  void receive_scan(sim::Shard& shard, ShardLocal& local, double sx, double sy,
                    std::uint64_t sender_id, bool cross,
                    std::uint32_t sender_rotation, std::uint32_t sender_temp_id);
  /// Resolves the `receptions` (> 0) receptions of one beacon transmission
  /// in this shard: they join the key's admitted or pending check, or queue
  /// the key's first one.
  void admit(ShardLocal& local, std::uint64_t key, std::uint32_t temp_id,
             std::uint64_t receptions);
  /// Runs the accumulated RLC batch on the senders' certificates and
  /// signatures from the beacon table; a key that fails leaves the
  /// admission cache, so its next transmission is checked again.
  /// Throws std::logic_error if a pending sender's slot holds another
  /// rotation (a broken slot rule).
  void flush_crypto(ShardLocal& local);

  MetroConfig cfg_;
  std::unique_ptr<sim::ShardedWorld> world_;
  std::vector<ShardLocal> locals_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tick_tasks_;
  crypto::EcdsaPublicKey ca_key_;
  /// Real-crypto mode: precomputed multiples of ca_key_ for the flushes'
  /// merged CA term.
  std::unique_ptr<crypto::p256::OddMultiples> ca_table_;
  /// Real-crypto mode: [vehicle id][rotation & 1] (see the slot rule).
  std::vector<std::array<Beacon, 2>> beacons_;
};

}  // namespace aseck::v2x
