#include "src/xenstore/policy.h"

namespace xs {

const char* StorePolicyName(StorePolicy policy) {
  switch (policy) {
    case StorePolicy::kLegacy:
      return "legacy";
    case StorePolicy::kIndexed:
      return "indexed";
  }
  return "?";
}

bool StorePolicyFromName(const std::string& name, StorePolicy* out) {
  if (name == "legacy") {
    *out = StorePolicy::kLegacy;
    return true;
  }
  if (name == "indexed") {
    *out = StorePolicy::kIndexed;
    return true;
  }
  return false;
}

}  // namespace xs
