// The mechanism matrix of Figure 9: which toolstack, which store, split or
// not. chaos + noxs + split toolstack = LightVM.
#pragma once

#include <string>

#include "src/xenstore/policy.h"

namespace lightvm {

enum class ToolstackKind { kXl, kChaos };

struct Mechanisms {
  ToolstackKind toolstack = ToolstackKind::kChaos;
  bool noxs = true;   // replace the XenStore with noxs device pages
  bool split = true;  // pre-created shells from the chaos daemon
  // §9 extension (not in the paper's evaluation): SnowFlock-style page
  // sharing between VMs created from the same image flavor.
  bool page_sharing = false;
  // Which price list the host's xenstored charges (policy.h); Dom0Services
  // passes it to the Daemon it constructs. The paper presets stay on kLegacy
  // — figures 4/9 depend on the faithful O(n) costs; fleet-scale runs opt
  // into kIndexed via the scenario spec's `xenstore_policy` field. Ignored
  // when the preset has no store.
  xs::StorePolicy xs_policy = xs::StorePolicy::kLegacy;

  // The five configurations the paper evaluates.
  static Mechanisms Xl() { return {ToolstackKind::kXl, false, false, false}; }
  static Mechanisms ChaosXs() { return {ToolstackKind::kChaos, false, false, false}; }
  static Mechanisms ChaosXsSplit() { return {ToolstackKind::kChaos, false, true, false}; }
  static Mechanisms ChaosNoxs() { return {ToolstackKind::kChaos, true, false, false}; }
  static Mechanisms LightVm() { return {ToolstackKind::kChaos, true, true, false}; }
  // LightVM + the memory-deduplication extension.
  static Mechanisms LightVmShared() { return {ToolstackKind::kChaos, true, true, true}; }

  std::string label() const;
};

}  // namespace lightvm
