#ifndef UNIT_SHARD_ROUTER_H_
#define UNIT_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "unit/common/rng.h"
#include "unit/common/types.h"

namespace unitdb {

/// Deterministic item -> shard placement for the sharded engine
/// (shard/sharded.h): shard(i) = SplitMix64(i) mod N. The hash is a pure
/// function of the item id and the shard count — no state, no RNG stream —
/// so the same item always lands on the same shard across runs, processes,
/// and job counts, and re-partitioning only happens when N itself changes.
/// With N = 1 every item maps to shard 0 and a partitioned workload is the
/// original workload.
class ShardRouter {
 public:
  /// `num_shards` is clamped to >= 1.
  explicit ShardRouter(int num_shards);

  int num_shards() const { return num_shards_; }

  int ShardOf(ItemId item) const {
    return static_cast<int>(SplitMix64(static_cast<uint64_t>(item)) %
                            static_cast<uint64_t>(num_shards_));
  }

  /// Groups a read set by owning shard. Original read-set order is preserved
  /// inside every group — lock-acquisition order is part of the engine's
  /// deterministic behavior, so a single-shard split must reproduce the
  /// read set exactly. `groups` is resized to num_shards() and every entry
  /// cleared; `touched` receives the shards that own at least one item, in
  /// first-touch order. The sharded oracle's copying partition
  /// (model/reference_shard.h) splits with it; PartitionWorkload's views
  /// route without building groups.
  void Split(const std::vector<ItemId>& items,
             std::vector<std::vector<ItemId>>* groups,
             std::vector<int>* touched) const;

 private:
  int num_shards_;
};

/// Per-shard seed derivation. With one shard the base seed passes through
/// untouched so a shards=1 stack is bit-identical to the monolithic engine;
/// with N > 1 every shard gets a SplitMix64-decorrelated stream (the PR-1
/// scheme: mix the shard index through SplitMix64 rather than an affine
/// offset, so neighboring shards share no low-bit structure).
uint64_t ShardSeed(uint64_t base, int shard, int num_shards);

}  // namespace unitdb

#endif  // UNIT_SHARD_ROUTER_H_
