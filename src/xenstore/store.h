// The XenStore data model: a hierarchical key-value tree with per-node
// ownership, optimistic transactions, and prefix watches.
//
// This class is pure data structure — no simulated time. Every operation
// reports effort counters (nodes visited, watches checked, names compared,
// children listed) which the Daemon translates into simulated CPU cost. The
// O(#watches) match scan, the O(#domains) unique-name check and the
// O(#children) directory listing are the mechanisms behind the paper's
// superlinear VM-creation times (§4.2).
//
// One implementation, two price lists. Every operation runs the same
// algorithm on the same structures — the ordered tree, per-prefix watch
// buckets and a name index — and StorePolicy (policy.h) only decides which
// effort is *charged*: kLegacy the faithful oxenstored scans (a segment per
// tree level, every registered watch, every domain name up to the first
// match), kIndexed the fast path's probes. Values, errors, watch hits and
// counts cannot differ between policies; tests/property_test.cc checks that
// with a differential oracle and pins both price lists by digest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/hv/types.h"
#include "src/xenstore/policy.h"

namespace xs {

using ClientId = int64_t;
using TxnId = int64_t;
inline constexpr TxnId kNoTxn = 0;

// Effort counters accumulated by each store operation.
struct OpEffort {
  int64_t nodes_visited = 0;
  int64_t watch_checks = 0;
  int64_t watches_fired = 0;
  int64_t children_listed = 0;
  int64_t names_compared = 0;
  int64_t value_bytes = 0;

  void Reset() { *this = OpEffort{}; }
};

// A watch registration hit produced by a mutation.
struct WatchHit {
  ClientId client = 0;
  std::string watch_path;  // the registered prefix
  std::string token;
  std::string fired_path;  // the path that was modified
};

class Store {
 public:
  Store() : Store(StorePolicy::kLegacy) {}
  explicit Store(StorePolicy policy);
  // Not copyable: watches and client_prefixes_ point into watch_index_'s
  // keys.
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  StorePolicy policy() const { return policy_; }

  // Effort counters for the most recent operation.
  const OpEffort& last_effort() const { return effort_; }

  // --- Core operations (txn == kNoTxn applies directly) ---------------------

  // Reads a node's value.
  lv::Result<std::string> Read(const std::string& path, TxnId txn = kNoTxn);

  // Writes a value, creating the node and any missing ancestors (XenStore
  // semantics). Mutations outside transactions fire watches immediately; the
  // hits are appended to `hits` if non-null.
  //
  // Permission model (as enforced by real xenstored's node ACLs): Dom0 may
  // mutate anywhere; a guest may only mutate inside its own
  // /local/domain/<domid> subtree. Reads are unrestricted (the default
  // world-readable ACL).
  lv::Status Write(const std::string& path, const std::string& value, hv::DomainId owner,
                   TxnId txn = kNoTxn, std::vector<WatchHit>* hits = nullptr);

  // Removes a node and its subtree.
  lv::Status Rm(const std::string& path, TxnId txn = kNoTxn,
                std::vector<WatchHit>* hits = nullptr,
                hv::DomainId requester = hv::kDom0);

  // Lists a node's children (costs O(#children), like XS_DIRECTORY). The
  // listing is recorded as a transaction read when `txn` is given.
  lv::Result<std::vector<std::string>> Directory(const std::string& path,
                                                 TxnId txn = kNoTxn);

  bool Exists(const std::string& path);

  // --- Transactions ----------------------------------------------------------
  // Optimistic concurrency mirroring oxenstored: reads/writes are tracked;
  // commit fails with CONFLICT if any touched path was modified by someone
  // else since the transaction began, and the client must retry.

  TxnId TxBegin();
  // abort=true discards. On success, buffered writes are applied atomically
  // and their watch hits appended to `hits`. Under quotas a commit that would
  // exceed a domain's node budget fails with QUOTA_EXCEEDED *before* applying
  // anything — the store is untouched and the transaction discarded.
  lv::Status TxCommit(TxnId txn, bool abort, std::vector<WatchHit>* hits);
  int64_t open_txns() const { return static_cast<int64_t>(txns_.size()); }

  // --- Watches ---------------------------------------------------------------

  // Registers a prefix watch. Per XenStore semantics the watch also fires
  // immediately upon registration; the synthetic hit is returned.
  WatchHit AddWatch(ClientId client, const std::string& path, const std::string& token);
  void RemoveWatch(ClientId client, const std::string& path, const std::string& token);
  void RemoveClientWatches(ClientId client);
  int64_t num_watches() const { return watch_count_; }

  // Synthesizes one hit per registration (fired_path == watch path), in
  // registration order — the replay a restarted xenstored sends so clients
  // re-evaluate watch-driven state machines. Charges one watch check each.
  std::vector<WatchHit> ReplayWatches();

  // --- Domain-name uniqueness (paper §4.2) -----------------------------------
  // One probe of the name index. Legacy is charged the oxenstored scan over
  // /local/domain/*/name in key order, up to the first match (O(#domains));
  // indexed one comparison. Returns ALREADY_EXISTS on duplicate either way.
  lv::Status CheckUniqueName(const std::string& name);

  // --- Quotas ----------------------------------------------------------------
  // Per-domain node budget, enforced on node creation for guest-owned writes
  // (Dom0 is exempt, as in real xenstored's quota knobs). 0 disables
  // enforcement (the default; existing benches and figures are unaffected).
  void set_node_quota(int64_t max_nodes_per_domain) { node_quota_ = max_nodes_per_domain; }
  // Nodes currently owned by `domid` (quota accounting view).
  int64_t owner_nodes(hv::DomainId domid) const;

  // Total nodes in the tree, excluding the root. Maintained incrementally.
  int64_t num_nodes() const { return node_count_; }

  uint64_t generation() const { return gen_; }

 private:
  struct Node {
    std::string value;
    hv::DomainId owner = hv::kDom0;
    std::map<std::string, std::unique_ptr<Node>> children;
  };

  // One buffered transaction mutation; nullopt value = removal. The owner is
  // recorded per write so quota accounting at commit charges the domain that
  // issued the write, not the committer.
  struct TxnWrite {
    std::string path;
    std::optional<std::string> value;
    hv::DomainId owner = hv::kDom0;
  };

  struct Txn {
    uint64_t start_gen = 0;
    std::vector<TxnWrite> writes;  // buffered mutations in order
    std::vector<std::string> reads;
    hv::DomainId owner = hv::kDom0;
  };

  struct Watch {
    ClientId client = 0;
    const std::string* path = nullptr;  // its bucket's key in watch_index_
    std::string token;
    // Registration sequence number: matches are collected from per-prefix
    // buckets and re-sorted by seq, so hits fire in registration order.
    int64_t seq = 0;
  };

  // Canonicalizes a path ("/a//b/" -> "a/b" as joined segments).
  static std::string Canon(const std::string& path);
  // May `domid` mutate `canon`?
  static bool MayMutate(hv::DomainId domid, const std::string& canon);
  // The pricing step, and the only reader of the policy: of the two efforts
  // an operation computed, returns the one its policy charges.
  int64_t Price(int64_t legacy, int64_t indexed) const;
  // Walks the tree to `canon`, creating missing nodes owned by `owner` when
  // `create`; nullptr if absent otherwise. Adds the segments looked up to
  // *visited (the legacy walk price).
  Node* Walk(const std::string& canon, bool create, hv::DomainId owner, int64_t* visited);
  // Existing-node lookup: legacy pays per segment walked, indexed one probe.
  Node* Lookup(const std::string& canon);
  void BumpGen(const std::string& canon);
  uint64_t PathGen(const std::string& canon) const;
  // Collects the watches matching a mutated path: one bucket probe per
  // ancestor prefix. Legacy pays a check of every registered watch.
  void MatchWatches(const std::string& canon, std::vector<WatchHit>* hits);
  // `shadowed`: a later write in the same removal-free commit overwrites
  // this one, so indexed does not pay for it when the node exists.
  lv::Status ApplyWrite(const std::string& canon, const std::optional<std::string>& value,
                        hv::DomainId owner, std::vector<WatchHit>* hits,
                        bool shadowed = false);

  // --- Index bookkeeping (never touches effort counters) ---------------------
  // Counts a freshly created node towards node/owner totals and (for
  // local/domain/<id>/name paths) the name index.
  void RegisterNode(const std::string& canon, Node* node);
  // Uncounts `node` and its whole subtree ahead of removal.
  void UnregisterSubtree(const std::string& canon, Node* node);
  // Sets a node's value, keeping the name index in sync.
  void SetNodeValue(const std::string& canon, Node* node, const std::string& value);
  // The <id> of a local/domain/<id>/name path; empty for any other path.
  static std::string_view DomainNameKey(const std::string& canon);
  void IndexName(const std::string& canon, const std::string& value, bool add);

  // --- Quota enforcement -----------------------------------------------------
  // Nodes a write to `canon` would create, given the current tree plus the
  // paths in `virtual_nodes` (commit pre-pass); newly implied ancestors are
  // added to `virtual_nodes` when non-null.
  int64_t CountMissingNodes(const std::string& canon,
                            std::map<std::string, bool>* virtual_nodes) const;
  lv::Status CheckQuota(hv::DomainId owner, int64_t new_nodes) const;
  // Dry-runs every buffered write's node creations against the quota before
  // a commit applies anything, so rejection leaves the store untouched.
  lv::Status PrecheckTxnQuota(const Txn& t) const;

  StorePolicy policy_;
  Node root_;
  uint64_t gen_ = 1;
  std::unordered_map<std::string, uint64_t> path_gen_;
  std::unordered_map<TxnId, Txn> txns_;
  TxnId next_txn_ = 1;
  OpEffort effort_;

  // watch_index_ buckets watches by exact registered prefix, and
  // client_prefixes_ lists each client's prefixes (one entry per watch) so
  // releasing a client visits only its own buckets. Watches and entries
  // point at their bucket's key (map nodes are stable), so each prefix is
  // stored once; a bucket is erased only once empty, when nothing points at
  // it. name_index_ maps each local/domain/<id>/name value to its <id> keys,
  // ordered like the tree's children so the first key is the first match of
  // the legacy scan.
  std::unordered_map<std::string, std::vector<Watch>> watch_index_;
  std::unordered_map<ClientId, std::vector<const std::string*>> client_prefixes_;
  std::unordered_map<std::string, std::set<std::string, std::less<>>> name_index_;
  int64_t watch_count_ = 0;
  int64_t watch_seq_ = 0;
  int64_t node_count_ = 0;
  // Deterministic iteration order matters: quota pre-pass failure messages
  // must not depend on hash-map ordering.
  std::map<hv::DomainId, int64_t> owner_nodes_;
  int64_t node_quota_ = 0;  // 0 = unlimited
};

}  // namespace xs
