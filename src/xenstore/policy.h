// StorePolicy: which price list a Store charges.
//
// A Store runs one implementation under either policy (store.h); the policy
// only selects the effort counters — and hence the simulated CPU cost — each
// operation is charged. kLegacy is the faithful oxenstored model, O(#watches)
// match scans and O(#domains) unique-name checks, whose superlinear cost
// curve figures 4 and 9 reproduce. kIndexed prices the fast path (hash path
// probes, per-prefix watch fanout, O(1) name lookup, batched transaction
// commit) for fleet-scale runs. Read results, watch-hit sets and order,
// error codes and node / watch counts are identical under both;
// tests/property_test.cc checks that with a differential oracle over seeded
// random op sequences.
//
// The policy is an explicit constructor argument of Store and Daemon,
// threaded from Mechanisms::xs_policy by Dom0Services.
#pragma once

#include <string>

namespace xs {

enum class StorePolicy {
  kLegacy,   // faithful O(n) oxenstored model (default)
  kIndexed,  // indexed fast path
};

// "legacy" / "indexed".
const char* StorePolicyName(StorePolicy policy);
// Returns false on an unknown name; *out is untouched.
bool StorePolicyFromName(const std::string& name, StorePolicy* out);

}  // namespace xs
