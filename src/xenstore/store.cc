#include "src/xenstore/store.h"

#include <algorithm>
#include <unordered_set>

#include "src/base/strings.h"

namespace xs {

Store::Store(StorePolicy policy) : policy_(policy) {}

int64_t Store::Price(int64_t legacy, int64_t indexed) const {
  return policy_ == StorePolicy::kLegacy ? legacy : indexed;
}

std::string Store::Canon(const std::string& path) {
  return lv::Join(lv::Split(path, '/'), '/');
}

bool Store::MayMutate(hv::DomainId domid, const std::string& canon) {
  if (domid == hv::kDom0) {
    return true;
  }
  std::string own = lv::StrFormat("local/domain/%lld", (long long)domid);
  return canon == own || (canon.size() > own.size() && lv::HasPrefix(canon, own) &&
                          canon[own.size()] == '/');
}

// --- Index bookkeeping -------------------------------------------------------
// Pure bookkeeping: never touches the effort counters or the generation.

std::string_view Store::DomainNameKey(const std::string& canon) {
  constexpr std::string_view kPrefix = "local/domain/";
  constexpr std::string_view kSuffix = "/name";
  if (canon.size() <= kPrefix.size() + kSuffix.size()) {
    return {};
  }
  if (canon.compare(0, kPrefix.size(), kPrefix) != 0 ||
      canon.compare(canon.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
    return {};
  }
  // Exactly one segment (the domid) between prefix and suffix.
  std::string_view mid(canon.data() + kPrefix.size(),
                       canon.size() - kPrefix.size() - kSuffix.size());
  return mid.find('/') == std::string_view::npos ? mid : std::string_view();
}

void Store::IndexName(const std::string& canon, const std::string& value, bool add) {
  std::string_view key = DomainNameKey(canon);
  if (key.empty()) {
    return;
  }
  if (add) {
    name_index_[value].emplace(key);
    return;
  }
  auto names = name_index_.find(value);
  names->second.erase(names->second.find(key));
  if (names->second.empty()) {
    name_index_.erase(names);
  }
}

void Store::RegisterNode(const std::string& canon, Node* node) {
  ++node_count_;
  ++owner_nodes_[node->owner];
  IndexName(canon, node->value, /*add=*/true);
}

void Store::UnregisterSubtree(const std::string& canon, Node* node) {
  for (auto& [name, child] : node->children) {
    UnregisterSubtree(canon + "/" + name, child.get());
  }
  --node_count_;
  auto it = owner_nodes_.find(node->owner);
  if (it != owner_nodes_.end() && --it->second <= 0) {
    owner_nodes_.erase(it);
  }
  IndexName(canon, node->value, /*add=*/false);
}

void Store::SetNodeValue(const std::string& canon, Node* node, const std::string& value) {
  IndexName(canon, node->value, /*add=*/false);
  IndexName(canon, value, /*add=*/true);
  node->value = value;
}

int64_t Store::owner_nodes(hv::DomainId domid) const {
  auto it = owner_nodes_.find(domid);
  return it == owner_nodes_.end() ? 0 : it->second;
}

// --- Tree access -------------------------------------------------------------

Store::Node* Store::Walk(const std::string& canon, bool create, hv::DomainId owner,
                         int64_t* visited) {
  Node* node = &root_;
  if (canon.empty()) {
    return node;
  }
  std::string prefix;
  for (const std::string& seg : lv::Split(canon, '/')) {
    ++*visited;
    if (create) {
      prefix = prefix.empty() ? seg : prefix + "/" + seg;
    }
    auto it = node->children.find(seg);
    if (it == node->children.end()) {
      if (!create) {
        return nullptr;
      }
      auto child = std::make_unique<Node>();
      child->owner = owner;
      it = node->children.emplace(seg, std::move(child)).first;
      RegisterNode(prefix, it->second.get());
    }
    node = it->second.get();
  }
  return node;
}

Store::Node* Store::Lookup(const std::string& canon) {
  int64_t visited = 0;
  Node* node = Walk(canon, /*create=*/false, hv::kDom0, &visited);
  effort_.nodes_visited += Price(visited, canon.empty() ? 0 : 1);
  return node;
}

void Store::BumpGen(const std::string& canon) {
  path_gen_[canon] = ++gen_;
  // Creating/removing an entry is also a modification of the parent
  // directory for conflict purposes.
  size_t slash = canon.rfind('/');
  std::string parent = slash == std::string::npos ? std::string() : canon.substr(0, slash);
  path_gen_[parent] = gen_;
}

uint64_t Store::PathGen(const std::string& canon) const {
  auto it = path_gen_.find(canon);
  return it == path_gen_.end() ? 0 : it->second;
}

void Store::MatchWatches(const std::string& canon, std::vector<WatchHit>* hits) {
  // One bucket probe per ancestor prefix, including the path itself and the
  // match-all "" prefix, re-sorted into registration order.
  std::vector<const Watch*> matched;
  int64_t probes = 0;
  std::string prefix = canon;
  while (true) {
    ++probes;
    auto it = watch_index_.find(prefix);
    if (it != watch_index_.end()) {
      for (const Watch& w : it->second) {
        matched.push_back(&w);
      }
    }
    if (prefix.empty()) {
      break;
    }
    size_t slash = prefix.rfind('/');
    prefix.resize(slash == std::string::npos ? 0 : slash);
  }
  std::sort(matched.begin(), matched.end(),
            [](const Watch* a, const Watch* b) { return a->seq < b->seq; });
  // oxenstored checks the fired path against every registered watch.
  effort_.watch_checks += Price(watch_count_, probes);
  effort_.watches_fired += static_cast<int64_t>(matched.size());
  if (hits != nullptr) {
    for (const Watch* w : matched) {
      hits->push_back(WatchHit{w->client, *w->path, w->token, canon});
    }
  }
}

// --- Quota enforcement -------------------------------------------------------

int64_t Store::CountMissingNodes(const std::string& canon,
                                 std::map<std::string, bool>* virtual_nodes) const {
  if (canon.empty()) {
    return 0;
  }
  const Node* node = &root_;
  int64_t missing = 0;
  std::string prefix;
  for (const std::string& seg : lv::Split(canon, '/')) {
    prefix = prefix.empty() ? seg : prefix + "/" + seg;
    if (node != nullptr) {
      auto it = node->children.find(seg);
      if (it != node->children.end()) {
        node = it->second.get();
        continue;
      }
      node = nullptr;
    }
    if (virtual_nodes != nullptr) {
      if (virtual_nodes->count(prefix) == 0) {
        (*virtual_nodes)[prefix] = true;
        ++missing;
      }
    } else {
      ++missing;
    }
  }
  return missing;
}

lv::Status Store::CheckQuota(hv::DomainId owner, int64_t new_nodes) const {
  if (node_quota_ <= 0 || owner == hv::kDom0 || new_nodes == 0) {
    return lv::Status::Ok();
  }
  int64_t current = owner_nodes(owner);
  if (current + new_nodes > node_quota_) {
    return lv::Err(lv::ErrorCode::kQuotaExceeded,
                   lv::StrFormat("dom%lld node quota exceeded (%lld owned + %lld new > %lld)",
                                 (long long)owner, (long long)current,
                                 (long long)new_nodes, (long long)node_quota_));
  }
  return lv::Status::Ok();
}

lv::Status Store::PrecheckTxnQuota(const Txn& t) const {
  if (node_quota_ <= 0) {
    return lv::Status::Ok();
  }
  // Dry-run: count the nodes each buffered write would create given the tree
  // plus everything earlier writes in this transaction imply. Removals are
  // not credited back (conservative: a txn must fit its peak footprint).
  std::map<hv::DomainId, int64_t> pending;
  std::map<std::string, bool> virtual_nodes;
  for (const TxnWrite& w : t.writes) {
    if (!w.value.has_value()) {
      continue;
    }
    int64_t missing = CountMissingNodes(w.path, &virtual_nodes);
    if (missing > 0 && w.owner != hv::kDom0) {
      pending[w.owner] += missing;
    }
  }
  for (const auto& [owner, n] : pending) {
    lv::Status quota = CheckQuota(owner, n);
    if (!quota.ok()) {
      return quota;
    }
  }
  return lv::Status::Ok();
}

// --- Core operations ---------------------------------------------------------

lv::Result<std::string> Store::Read(const std::string& path, TxnId txn) {
  effort_.Reset();
  std::string canon = Canon(path);
  if (txn != kNoTxn) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
    }
    it->second.reads.push_back(canon);
    // Read-your-writes within the transaction.
    for (auto w = it->second.writes.rbegin(); w != it->second.writes.rend(); ++w) {
      if (w->path == canon) {
        if (!w->value.has_value()) {
          return lv::Err(lv::ErrorCode::kNotFound, path);
        }
        effort_.value_bytes += static_cast<int64_t>(w->value->size());
        return *w->value;
      }
    }
  }
  Node* node = Lookup(canon);
  if (node == nullptr) {
    return lv::Err(lv::ErrorCode::kNotFound, path);
  }
  effort_.value_bytes += static_cast<int64_t>(node->value.size());
  return node->value;
}

lv::Status Store::ApplyWrite(const std::string& canon, const std::optional<std::string>& value,
                             hv::DomainId owner, std::vector<WatchHit>* hits, bool shadowed) {
  int64_t visited = 0;
  if (value.has_value()) {
    int64_t nodes_before = node_count_;
    Node* node = Walk(canon, /*create=*/true, owner, &visited);
    SetNodeValue(canon, node, *value);
    // Indexed probes the path (1) and walks only to create (1 + depth). A
    // shadowed write to an existing node is batched away: no probe, no copy.
    bool created = node_count_ != nodes_before;
    bool batched = shadowed && !created && !canon.empty();
    int64_t probes = canon.empty() || batched ? 0 : created ? 1 + visited : 1;
    int64_t bytes = static_cast<int64_t>(value->size());
    effort_.nodes_visited += Price(visited, probes);
    effort_.value_bytes += Price(bytes, batched ? 0 : bytes);
  } else {
    // Removal: legacy walks to the parent; indexed probes the path, then
    // the parent unless that is the root.
    size_t slash = canon.rfind('/');
    std::string parent_path =
        slash == std::string::npos ? std::string() : canon.substr(0, slash);
    std::string leaf = slash == std::string::npos ? canon : canon.substr(slash + 1);
    Node* parent = Walk(parent_path, /*create=*/false, owner, &visited);
    bool found = parent != nullptr && parent->children.count(leaf) != 0;
    effort_.nodes_visited += Price(visited, found && !parent_path.empty() ? 2 : 1);
    if (!found) {
      return lv::Err(lv::ErrorCode::kNotFound, canon);
    }
    auto child = parent->children.find(leaf);
    UnregisterSubtree(canon, child->second.get());
    parent->children.erase(child);
  }
  BumpGen(canon);
  MatchWatches(canon, hits);
  return lv::Status::Ok();
}

lv::Status Store::Write(const std::string& path, const std::string& value,
                        hv::DomainId owner, TxnId txn, std::vector<WatchHit>* hits) {
  effort_.Reset();
  std::string canon = Canon(path);
  if (!MayMutate(owner, canon)) {
    return lv::Err(lv::ErrorCode::kPermissionDenied,
                   lv::StrFormat("dom%lld may not write %s", (long long)owner,
                                 path.c_str()));
  }
  if (txn != kNoTxn) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
    }
    it->second.writes.push_back(TxnWrite{canon, value, owner});
    effort_.value_bytes += static_cast<int64_t>(value.size());
    return lv::Status::Ok();
  }
  if (node_quota_ > 0 && owner != hv::kDom0) {
    lv::Status quota = CheckQuota(owner, CountMissingNodes(canon, nullptr));
    if (!quota.ok()) {
      return quota;
    }
  }
  return ApplyWrite(canon, value, owner, hits);
}

lv::Status Store::Rm(const std::string& path, TxnId txn, std::vector<WatchHit>* hits,
                     hv::DomainId requester) {
  effort_.Reset();
  std::string canon = Canon(path);
  if (!MayMutate(requester, canon)) {
    return lv::Err(lv::ErrorCode::kPermissionDenied,
                   lv::StrFormat("dom%lld may not remove %s", (long long)requester,
                                 path.c_str()));
  }
  if (txn != kNoTxn) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
    }
    it->second.writes.push_back(TxnWrite{canon, std::nullopt, requester});
    return lv::Status::Ok();
  }
  return ApplyWrite(canon, std::nullopt, hv::kDom0, hits);
}

lv::Result<std::vector<std::string>> Store::Directory(const std::string& path, TxnId txn) {
  effort_.Reset();
  std::string canon = Canon(path);
  if (txn != kNoTxn) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
    }
    it->second.reads.push_back(canon);
  }
  Node* node = Lookup(canon);
  if (node == nullptr) {
    return lv::Err(lv::ErrorCode::kNotFound, path);
  }
  std::vector<std::string> out;
  out.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    ++effort_.children_listed;
    out.push_back(name);
  }
  return out;
}

bool Store::Exists(const std::string& path) {
  effort_.Reset();
  return Lookup(Canon(path)) != nullptr;
}

// --- Transactions ------------------------------------------------------------

TxnId Store::TxBegin() {
  effort_.Reset();
  TxnId id = next_txn_++;
  Txn txn;
  txn.start_gen = gen_;
  txns_.emplace(id, std::move(txn));
  return id;
}

lv::Status Store::TxCommit(TxnId txn, bool abort, std::vector<WatchHit>* hits) {
  effort_.Reset();
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return lv::Err(lv::ErrorCode::kInvalidArgument, "unknown transaction");
  }
  Txn t = std::move(it->second);
  txns_.erase(it);
  if (abort) {
    return lv::Status::Ok();
  }
  // Conflict detection: anything we read or wrote that someone else touched
  // since the transaction began forces a retry (EAGAIN in real Xen). The
  // predicate is per-path idempotent, so only a path's first occurrence can
  // conflict; legacy still pays a check per entry, indexed per distinct path.
  std::unordered_set<std::string> checked;
  auto conflicts = [&](const std::string& p) {
    bool first = checked.insert(p).second;
    effort_.nodes_visited += Price(1, first ? 1 : 0);
    return first && PathGen(p) > t.start_gen;
  };
  for (const std::string& p : t.reads) {
    if (conflicts(p)) {
      return lv::Err(lv::ErrorCode::kConflict, "transaction conflict on " + p);
    }
  }
  for (const TxnWrite& w : t.writes) {
    if (conflicts(w.path)) {
      return lv::Err(lv::ErrorCode::kConflict, "transaction conflict on " + w.path);
    }
  }
  // Quota pre-pass before anything is applied: a rejected commit leaves the
  // store untouched (clean rollback) and the transaction discarded.
  lv::Status quota = PrecheckTxnQuota(t);
  if (!quota.ok()) {
    return quota;
  }
  // Indexed prices a removal-free commit as a batch, where a write that a
  // later write to the same path shadows is not charged (see ApplyWrite).
  // Any removal disables that: rm erases a whole subtree, so write/rm/write
  // to the same path is not last-write-wins.
  bool batch = std::all_of(t.writes.begin(), t.writes.end(),
                           [](const TxnWrite& w) { return w.value.has_value(); });
  std::unordered_map<std::string, size_t> last;
  for (size_t i = 0; batch && i < t.writes.size(); ++i) {
    last[t.writes[i].path] = i;
  }
  for (size_t i = 0; i < t.writes.size(); ++i) {
    const TxnWrite& w = t.writes[i];
    // Removal of a non-existent path inside a txn is tolerated (mirrors
    // xenstore rm semantics when the whole subtree was created in-txn).
    (void)ApplyWrite(w.path, w.value, w.owner, hits, batch && last[w.path] != i);
  }
  return lv::Status::Ok();
}

// --- Watches -----------------------------------------------------------------

WatchHit Store::AddWatch(ClientId client, const std::string& path, const std::string& token) {
  effort_.Reset();
  std::string canon = Canon(path);
  auto& [key, bucket] = *watch_index_.try_emplace(canon).first;
  bucket.push_back(Watch{client, &key, token, watch_seq_++});
  client_prefixes_[client].push_back(&key);
  ++watch_count_;
  // XenStore fires a watch immediately upon registration.
  return WatchHit{client, canon, token, canon};
}

void Store::RemoveWatch(ClientId client, const std::string& path, const std::string& token) {
  effort_.Reset();
  std::string canon = Canon(path);
  auto bucket = watch_index_.find(canon);
  if (bucket == watch_index_.end()) {
    return;
  }
  size_t removed = std::erase_if(bucket->second, [&](const Watch& w) {
    return w.client == client && w.token == token;
  });
  watch_count_ -= static_cast<int64_t>(removed);
  // One prefix entry per removed watch, dropped while the key it points at
  // still lives.
  if (removed > 0) {
    std::vector<const std::string*>& prefixes = client_prefixes_[client];
    for (size_t i = 0; i < removed; ++i) {
      prefixes.erase(std::find(prefixes.begin(), prefixes.end(), &bucket->first));
    }
    if (prefixes.empty()) {
      client_prefixes_.erase(client);
    }
  }
  if (bucket->second.empty()) {
    watch_index_.erase(bucket);
  }
}

void Store::RemoveClientWatches(ClientId client) {
  effort_.Reset();
  auto prefixes = client_prefixes_.find(client);
  if (prefixes == client_prefixes_.end()) {
    return;
  }
  // Each visit removes the one watch its entry stands for, so a prefix the
  // client watches twice keeps its bucket (and key) alive until the second
  // visit.
  for (const std::string* prefix : prefixes->second) {
    auto bucket = watch_index_.find(*prefix);
    std::vector<Watch>& watches = bucket->second;
    watches.erase(std::find_if(watches.begin(), watches.end(),
                               [&](const Watch& w) { return w.client == client; }));
    --watch_count_;
    if (watches.empty()) {
      watch_index_.erase(bucket);
    }
  }
  client_prefixes_.erase(prefixes);
}

std::vector<WatchHit> Store::ReplayWatches() {
  effort_.Reset();
  std::vector<const Watch*> all;
  all.reserve(static_cast<size_t>(watch_count_));
  for (const auto& [prefix, bucket] : watch_index_) {
    for (const Watch& w : bucket) {
      all.push_back(&w);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Watch* a, const Watch* b) { return a->seq < b->seq; });
  std::vector<WatchHit> hits;
  hits.reserve(all.size());
  for (const Watch* w : all) {
    ++effort_.watch_checks;
    hits.push_back(WatchHit{w->client, *w->path, w->token, *w->path});
  }
  return hits;
}

// --- Domain-name uniqueness --------------------------------------------------

lv::Status Store::CheckUniqueName(const std::string& name) {
  effort_.Reset();
  int64_t visited = 0;
  Node* domains = Walk("local/domain", /*create=*/false, hv::kDom0, &visited);
  auto taken = name_index_.find(name);
  // The legacy scan compares domains in key order and stops at the first
  // match, which is the first key of the name's (equally ordered) set.
  int64_t scanned = 0;
  if (domains != nullptr) {
    scanned = taken == name_index_.end()
                  ? static_cast<int64_t>(domains->children.size())
                  : std::distance(domains->children.begin(),
                                  domains->children.find(*taken->second.begin())) + 1;
  }
  effort_.nodes_visited += Price(visited, 0);
  effort_.names_compared += Price(scanned, 1);
  if (taken != name_index_.end()) {
    return lv::Err(lv::ErrorCode::kAlreadyExists, "guest name in use: " + name);
  }
  return lv::Status::Ok();
}

}  // namespace xs
