#ifndef REPLIDB_PERFBENCH_REFERENCE_H_
#define REPLIDB_PERFBENCH_REFERENCE_H_

namespace replidb::perfbench {

/// Duration the reference kernel is scaled to: host-cost metrics are
/// reported as if the host ran the kernel in exactly this long.
inline constexpr double kReferenceKernelS = 0.025;

/// \brief Times one pass of a fixed, deterministic mix of heap, hash-map,
/// string and sort work that shares no code with replidb, and returns its
/// wall seconds. The host's speed drifts by tens of percent over minutes
/// (shared cores); the kernel's time drifts with it, so dividing a host
/// cost by it cancels the drift while any change to replidb's own code
/// still shows.
double ReferenceKernelSeconds();

}  // namespace replidb::perfbench

#endif  // REPLIDB_PERFBENCH_REFERENCE_H_
