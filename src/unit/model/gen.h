#ifndef UNIT_MODEL_GEN_H_
#define UNIT_MODEL_GEN_H_

#include <cstdint>

#include "unit/model/diff.h"

namespace unitdb {

/// Derives one fully-specified differential-test case from (seed, index):
/// a random workload (items, update sources, heavy-tailed query trace), a
/// random fault scenario, random engine tunables (control period, estimate
/// noise, occasionally FCFS dispatch), random USM weights, and random policy
/// options. Deterministic: the same pair always yields the same case, on any
/// platform, so every failure line "seed=S case=I" replays exactly.
///
/// The case matrix rotates with `index` so a linear sweep covers
/// {policy x faults on/off x streaming x shards x sessions x shedding x
/// cache x flash crowd x coarse clock}:
///
///   policy              = {unit, imu, odu, qmf}[index % 4]
///   faults attached     = (index / 16) % 2 == 0
///   stream_queries      = (index / 32) % 2 == 0  (source-backed trace)
///   shards              = (index / 64) % 4   (0 = monolithic diff)
///   shard_jobs          = (index / 128) % 2 == 0 ? 1 : 2
///   sessions attached   = (index / 256) % 2 == 1  (closed-loop clients)
///   shed watermark set  = (index / 512) % 2 == 1  (overload shedding)
///   result cache on     = (index / 1024) % 2 == 1 (freshness-aware cache)
///   flash crowd         = index % 8 == 0  (unit policy; every arrival
///                         squeezed into 1-5% of the run)
///   coarse clock        = (index / 8) % 4 == 1  (every policy; arrivals,
///                         query exec times and deadlines, and update
///                         periods, phases and exec times snapped to a
///                         5 ms grid, so events tie)
///
/// DescribeCase prints the last two as shape=plain|flash|coarse|
/// flash+coarse.
///
/// Everything else is drawn from Rng(SplitMix64(seed ^ SplitMix64(index))).
/// The knob rotations are index arithmetic only (no RNG draw), so adding a
/// dimension never changes the workloads of existing (seed, case) pairs.
DiffCase GenerateCase(uint64_t seed, int64_t index);

}  // namespace unitdb

#endif  // UNIT_MODEL_GEN_H_
