#pragma once
// Sharded, thread-parallel, bit-deterministic world simulation.
//
// The single-threaded `sim::Scheduler` caps every experiment at a few
// hundred interacting entities (E2/E17 saturate near 500 V2X neighbors).
// `ShardedWorld` partitions the world into a uniform grid of spatial cells
// (*shards*); each shard owns a private event loop — its own `Scheduler`,
// `MetricsRegistry`, and RNG stream — and the set of shards is advanced in
// fixed *epochs* on a fork-join thread pool.
//
// Determinism contract (the reason an N-thread run is bit-identical to a
// 1-thread run of the same seed):
//
//  1. Within an epoch a shard's events touch only that shard's state.
//     Cross-shard effects go through `Shard::post`, which appends to the
//     *sending* shard's outbox for the destination's direction — never to
//     shared state.
//  2. Only scheduler events post; every message runs at the next boundary.
//     A message goes to the sending shard itself or one of its 8 adjacent
//     cells. A barrier ends the epoch; then each destination drains its
//     <=9 neighboring sources' outboxes (itself included) in ascending
//     source shard id, each source's messages in post order, before any
//     scheduler event of the next epoch. Each destination is drained by
//     exactly one thread, so neighbor delivery runs in parallel. Because
//     no handler posts, delivery can drain the outboxes in place. `post`
//     throws std::logic_error from a delivery handler or from
//     `for_each_shard`, and std::out_of_range for a destination that is
//     not adjacent.
//  3. Per-shard RNG streams are derived from the master seed by shard id
//     (`util::Rng::for_stream`), so shard-local randomness never depends
//     on the interleaving of other shards.
//  4. A table outside the shards that several shards read (MetroWorld's
//     beacon table, v2x/citynet.hpp) needs a slot rule: an entry is
//     written only by the shard holding its owner, in the epoch it is
//     produced; other shards read it only in later epochs, through
//     messages delivered after a barrier (and work those messages queue);
//     and an entry is rewritten only after every such read is over. The
//     barrier orders every write before every read, so no lock is needed
//     and no read can see a thread-count-dependent value.
//
// Metrics stay exactly reproducible across thread counts because each
// shard records into its own registry and `merge_metrics` folds them in
// ascending shard id order (using `MetricsRegistry::merge_from`).

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "sim/threadpool.hpp"
#include "util/rng.hpp"
#include "util/smallfn.hpp"

namespace aseck::sim {

struct ShardedWorldConfig {
  double width_m = 1000.0;
  double height_m = 1000.0;
  /// Shard cell edge. For interaction models (V2X radio) choose
  /// cell_m >= interaction range so any interaction crosses at most one
  /// cell boundary and the 8-neighbor epoch batches suffice.
  double cell_m = 500.0;
  /// Epoch length = cross-shard synchronization lookahead.
  SimTime epoch = SimTime::from_ms(100);
  /// Worker threads including the caller; 1 = strictly single-threaded.
  unsigned threads = 1;
  std::uint64_t seed = 1;
};

class ShardedWorld;

/// One spatial cell: a private event loop plus the cross-shard mailbox.
/// Not constructible by users; obtained from `ShardedWorld::shard`.
class Shard {
 public:
  /// Inline capture capacity of a cross-shard message handler: the largest
  /// capture any poster uses, MetroWorld's vehicle migration (`this` plus a
  /// 64-byte CityVehicle; v2x/citynet.cpp static_asserts it at the post
  /// site). A queued message is just its handler (96 bytes), so this stays
  /// exact: the city's BSM spill captures 40 bytes.
  static constexpr std::size_t kHandlerCapacity = 72;
  /// Cross-shard message handler: no heap allocation on the per-message hot
  /// path.
  using Handler = util::SmallFn<void(Shard&), kHandlerCapacity>;

  Scheduler& sched() { return sched_; }
  const Scheduler& sched() const { return sched_; }
  MetricsRegistry& metrics() { return metrics_; }
  util::Rng& rng() { return rng_; }

  std::uint32_t index() const { return index_; }
  std::uint32_t col() const { return col_; }
  std::uint32_t row() const { return row_; }
  ShardedWorld& world() { return world_; }

  /// Posts `fn` to shard `to` (this shard or an adjacent one); it runs
  /// there at the next epoch boundary. Only a scheduler event running on
  /// this shard may call it (contract item 2). Throws std::out_of_range
  /// for a destination outside the world or not adjacent, and
  /// std::logic_error while messages are delivered or `for_each_shard`
  /// runs.
  void post(std::uint32_t to, Handler fn);

  /// Messages handled by this shard so far.
  std::uint64_t messages_in() const { return delivered_; }

 private:
  friend class ShardedWorld;
  Shard(ShardedWorld& world, std::uint32_t index, std::uint32_t col,
        std::uint32_t row, std::uint64_t master_seed);

  ShardedWorld& world_;
  std::uint32_t index_, col_, row_;
  Scheduler sched_;
  MetricsRegistry metrics_;
  util::Rng rng_;
  // Outbox slot k = (drow+1)*3 + (dcol+1) holds messages for the neighbor
  // at that offset (slot 4 = self).
  std::array<std::vector<Handler>, 9> out_;
  std::uint64_t delivered_ = 0;
};

class ShardedWorld {
 public:
  explicit ShardedWorld(ShardedWorldConfig cfg);

  const ShardedWorldConfig& config() const { return cfg_; }
  std::uint32_t cols() const { return cols_; }
  std::uint32_t rows() const { return rows_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  Shard& shard(std::uint32_t i) { return *shards_[i]; }
  const Shard& shard(std::uint32_t i) const { return *shards_[i]; }

  /// Shard owning position (x, y); coordinates clamp to the world box.
  std::uint32_t shard_index_at(double x, double y) const;

  /// World time: the last completed epoch boundary.
  SimTime now() const { return now_; }
  std::uint64_t epochs() const { return epochs_; }
  /// Total cross-shard messages handled (sum over shards, deterministic).
  std::uint64_t messages() const;
  /// Bytes reserved by every shard's outboxes, for memory accounting.
  /// Depends on vector growth history, so it stays out of every digest.
  std::size_t outbox_bytes() const;

  /// Advances every shard to `until` in epoch steps with barrier merges.
  /// If a handler throws, the exception leaves run_until and the epoch's
  /// undelivered messages are dropped.
  void run_until(SimTime until);

  /// Runs fn(i) once for every shard i on the epoch thread pool and returns
  /// when all calls have finished. Call it between epochs, never from a
  /// shard event or handler; like an event, fn(i) touches only shard i's
  /// state, and it may not post (contract item 2). The first exception
  /// thrown is rethrown.
  void for_each_shard(const std::function<void(std::size_t)>& fn);

  /// Folds every shard's metrics into `into` in ascending shard id order.
  void merge_metrics(MetricsRegistry& into) const;
  /// Deterministic JSON of the merged registries (same bytes for any
  /// thread count).
  std::string merged_metrics_json() const;

 private:
  friend class Shard;
  /// Runs `fn` on the pool with posts closed; reopens them on every exit.
  void run_closed(std::size_t n, const std::function<void(std::size_t)>& fn);
  void deliver_neighbors(Shard& dst);

  ShardedWorldConfig cfg_;
  std::uint32_t cols_, rows_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ThreadPool pool_;
  /// Set while handlers or for_each_shard run: `post` throws. Written only
  /// between pool jobs, so the pool's fork and join order every read.
  bool posts_closed_ = false;
  SimTime now_ = SimTime::zero();
  std::uint64_t epochs_ = 0;
};

}  // namespace aseck::sim
