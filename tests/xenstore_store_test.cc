// Unit tests for the pure XenStore data model: tree ops, transactions,
// watches, effort counters and the unique-name admission scan.
#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/xenstore/store.h"

namespace xs {
namespace {

using lv::ErrorCode;

TEST(StoreTest, WriteCreatesIntermediateNodes) {
  Store store;
  EXPECT_TRUE(store.Write("/local/domain/1/name", "vm1", hv::kDom0).ok());
  EXPECT_TRUE(store.Exists("/local/domain/1"));
  EXPECT_TRUE(store.Exists("/local"));
  auto r = store.Read("/local/domain/1/name");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "vm1");
}

TEST(StoreTest, ReadMissingPathFails) {
  Store store;
  EXPECT_EQ(store.Read("/nope").code(), ErrorCode::kNotFound);
}

TEST(StoreTest, PathsAreCanonicalized) {
  Store store;
  EXPECT_TRUE(store.Write("/a//b/", "v", hv::kDom0).ok());
  EXPECT_EQ(*store.Read("a/b"), "v");
  EXPECT_EQ(*store.Read("/a/b"), "v");
}

TEST(StoreTest, RmRemovesSubtree) {
  Store store;
  (void)store.Write("/a/b/c", "1", hv::kDom0);
  (void)store.Write("/a/b/d", "2", hv::kDom0);
  EXPECT_TRUE(store.Rm("/a/b").ok());
  EXPECT_FALSE(store.Exists("/a/b/c"));
  EXPECT_FALSE(store.Exists("/a/b"));
  EXPECT_TRUE(store.Exists("/a"));
  EXPECT_EQ(store.Rm("/a/b").code(), ErrorCode::kNotFound);
}

TEST(StoreTest, DirectoryListsChildrenSorted) {
  Store store;
  (void)store.Write("/dir/b", "", hv::kDom0);
  (void)store.Write("/dir/a", "", hv::kDom0);
  (void)store.Write("/dir/c/nested", "", hv::kDom0);
  auto r = store.Directory("/dir");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(store.last_effort().children_listed, 3);
}

TEST(StoreTest, OverwriteUpdatesValue) {
  Store store;
  (void)store.Write("/k", "v1", hv::kDom0);
  (void)store.Write("/k", "v2", hv::kDom0);
  EXPECT_EQ(*store.Read("/k"), "v2");
}

// --- Watches ----------------------------------------------------------------

TEST(StoreTest, WatchFiresOnExactPathAndDescendants) {
  Store store;
  store.AddWatch(/*client=*/1, "/local/domain/3", "tok");
  std::vector<WatchHit> hits;
  (void)store.Write("/local/domain/3", "x", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].client, 1);
  EXPECT_EQ(hits[0].token, "tok");

  hits.clear();
  (void)store.Write("/local/domain/3/device/vif/0", "y", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].fired_path, "local/domain/3/device/vif/0");
}

TEST(StoreTest, WatchDoesNotFireOnSiblingOrPrefixName) {
  Store store;
  store.AddWatch(1, "/local/domain/3", "tok");
  std::vector<WatchHit> hits;
  (void)store.Write("/local/domain/4/name", "other", hv::kDom0, kNoTxn, &hits);
  EXPECT_TRUE(hits.empty());
  // "/local/domain/33" shares the string prefix but is a different node.
  (void)store.Write("/local/domain/33", "x", hv::kDom0, kNoTxn, &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(StoreTest, EveryMutationScansAllWatches) {
  Store store;
  for (int i = 0; i < 100; ++i) {
    store.AddWatch(i, lv::StrFormat("/w/%d", i), "t");
  }
  std::vector<WatchHit> hits;
  (void)store.Write("/unrelated", "x", hv::kDom0, kNoTxn, &hits);
  EXPECT_EQ(store.last_effort().watch_checks, 100);
  EXPECT_TRUE(hits.empty());
}

TEST(StoreTest, RemoveWatchStopsFiring) {
  Store store;
  store.AddWatch(1, "/a", "t1");
  store.AddWatch(1, "/a", "t2");
  store.RemoveWatch(1, "/a", "t1");
  std::vector<WatchHit> hits;
  (void)store.Write("/a/x", "v", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].token, "t2");
  store.RemoveClientWatches(1);
  hits.clear();
  (void)store.Write("/a/y", "v", hv::kDom0, kNoTxn, &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(store.num_watches(), 0);
}

// --- Transactions -------------------------------------------------------------

TEST(StoreTest, TxnBuffersWritesUntilCommit) {
  Store store;
  TxnId txn = store.TxBegin();
  EXPECT_TRUE(store.Write("/t/a", "1", hv::kDom0, txn).ok());
  EXPECT_FALSE(store.Exists("/t/a"));
  std::vector<WatchHit> hits;
  EXPECT_TRUE(store.TxCommit(txn, /*abort=*/false, &hits).ok());
  EXPECT_EQ(*store.Read("/t/a"), "1");
}

TEST(StoreTest, TxnReadYourWrites) {
  Store store;
  TxnId txn = store.TxBegin();
  (void)store.Write("/t/a", "in-txn", hv::kDom0, txn);
  EXPECT_EQ(*store.Read("/t/a", txn), "in-txn");
}

TEST(StoreTest, TxnAbortDiscards) {
  Store store;
  TxnId txn = store.TxBegin();
  (void)store.Write("/t/a", "1", hv::kDom0, txn);
  std::vector<WatchHit> hits;
  EXPECT_TRUE(store.TxCommit(txn, /*abort=*/true, &hits).ok());
  EXPECT_FALSE(store.Exists("/t/a"));
  EXPECT_EQ(store.open_txns(), 0);
}

TEST(StoreTest, ConflictingWriteForcesRetry) {
  Store store;
  (void)store.Write("/shared", "0", hv::kDom0);
  TxnId txn = store.TxBegin();
  (void)store.Read("/shared", txn);
  // Another client writes the same path outside the transaction.
  (void)store.Write("/shared", "external", hv::kDom0);
  (void)store.Write("/shared", "mine", hv::kDom0, txn);
  std::vector<WatchHit> hits;
  lv::Status commit = store.TxCommit(txn, false, &hits);
  EXPECT_EQ(commit.code(), ErrorCode::kConflict);
  EXPECT_EQ(*store.Read("/shared"), "external");  // Buffered write discarded.
}

TEST(StoreTest, NonOverlappingTxnsBothCommit) {
  Store store;
  TxnId t1 = store.TxBegin();
  TxnId t2 = store.TxBegin();
  (void)store.Write("/t1/x", "a", hv::kDom0, t1);
  (void)store.Write("/t2/y", "b", hv::kDom0, t2);
  std::vector<WatchHit> hits;
  EXPECT_TRUE(store.TxCommit(t1, false, &hits).ok());
  EXPECT_TRUE(store.TxCommit(t2, false, &hits).ok());
  EXPECT_EQ(*store.Read("/t1/x"), "a");
  EXPECT_EQ(*store.Read("/t2/y"), "b");
}

TEST(StoreTest, TxnCommitFiresWatchesForBufferedWrites) {
  Store store;
  store.AddWatch(1, "/t", "tok");
  TxnId txn = store.TxBegin();
  (void)store.Write("/t/a", "1", hv::kDom0, txn);
  (void)store.Write("/t/b", "2", hv::kDom0, txn);
  std::vector<WatchHit> hits;
  EXPECT_TRUE(store.TxCommit(txn, false, &hits).ok());
  EXPECT_EQ(hits.size(), 2u);
}

TEST(StoreTest, CommitUnknownTxnFails) {
  Store store;
  std::vector<WatchHit> hits;
  EXPECT_EQ(store.TxCommit(999, false, &hits).code(), ErrorCode::kInvalidArgument);
}

// --- Unique names ----------------------------------------------------------

TEST(StoreTest, CheckUniqueNameScansAllDomains) {
  Store store;
  for (int i = 1; i <= 50; ++i) {
    (void)store.Write(lv::StrFormat("/local/domain/%d/name", i), lv::StrFormat("vm%d", i),
                      hv::kDom0);
  }
  EXPECT_TRUE(store.CheckUniqueName("fresh").ok());
  EXPECT_EQ(store.last_effort().names_compared, 50);
  EXPECT_EQ(store.CheckUniqueName("vm17").code(), ErrorCode::kAlreadyExists);
  // The scan stops at the first match, in the children's lexicographic
  // order: 1, 10, 11, ..., 17 is the 9th domain compared.
  EXPECT_EQ(store.last_effort().names_compared, 9);
  // Domains 25 and 3 share a name: "25" sorts before "3" (position 18 of
  // 1, 10..19, 2, 20..25), so 25 ends the scan even though 3 is the lower id.
  (void)store.Write("/local/domain/3/name", "dup", hv::kDom0);
  (void)store.Write("/local/domain/25/name", "dup", hv::kDom0);
  EXPECT_EQ(store.CheckUniqueName("dup").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(store.last_effort().names_compared, 18);
  // Renaming 25 away leaves 3 (position 23) as the first match.
  (void)store.Write("/local/domain/25/name", "vm25", hv::kDom0);
  EXPECT_EQ(store.CheckUniqueName("dup").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(store.last_effort().names_compared, 23);
}

TEST(StoreTest, CheckUniqueNameEmptyStoreOk) {
  Store store;
  EXPECT_TRUE(store.CheckUniqueName("anything").ok());
}

TEST(StoreTest, EffortCountsNodesVisited) {
  Store store;
  (void)store.Write("/a/b/c/d", "v", hv::kDom0);
  EXPECT_EQ(store.last_effort().nodes_visited, 4);
  (void)store.Read("/a/b/c/d");
  EXPECT_EQ(store.last_effort().nodes_visited, 4);
  EXPECT_EQ(store.last_effort().value_bytes, 1);
}

TEST(StoreTest, GenerationAdvancesOnMutation) {
  Store store;
  uint64_t g0 = store.generation();
  (void)store.Write("/x", "1", hv::kDom0);
  EXPECT_GT(store.generation(), g0);
  uint64_t g1 = store.generation();
  (void)store.Read("/x");
  EXPECT_EQ(store.generation(), g1);  // Reads don't bump.
}

// --- Both policies: conflicts, self-fire, replay ordering, quotas ------------
// The behaviours below must hold identically under the legacy scan store and
// the indexed fast path (policy.h); the differential sweep in
// tests/property_test.cc covers random sequences, these pin the named cases.

class StorePolicyTest : public ::testing::TestWithParam<StorePolicy> {
 protected:
  Store store_{GetParam()};
};

TEST_P(StorePolicyTest, TxnConflictDetectedAndBufferDiscarded) {
  (void)store_.Write("/shared", "0", hv::kDom0);
  TxnId txn = store_.TxBegin();
  (void)store_.Read("/shared", txn);
  (void)store_.Write("/shared", "external", hv::kDom0);
  (void)store_.Write("/shared", "mine", hv::kDom0, txn);
  std::vector<WatchHit> hits;
  EXPECT_EQ(store_.TxCommit(txn, false, &hits).code(), ErrorCode::kConflict);
  EXPECT_EQ(*store_.Read("/shared"), "external");
  EXPECT_EQ(store_.open_txns(), 0);
}

TEST_P(StorePolicyTest, UnknownTransactionIsRejectedByEveryOp) {
  (void)store_.Write("/a/b", "v", hv::kDom0);
  constexpr TxnId kBogus = 42;
  std::vector<WatchHit> hits;
  EXPECT_EQ(store_.Read("/a/b", kBogus).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(store_.Write("/a/c", "v", hv::kDom0, kBogus).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(store_.Rm("/a/b", kBogus).code(), ErrorCode::kInvalidArgument);
  auto dir = store_.Directory("/a", kBogus);
  ASSERT_FALSE(dir.ok());
  EXPECT_EQ(dir.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(dir.error().message, "unknown transaction");
  EXPECT_EQ(store_.TxCommit(kBogus, false, &hits).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(*store_.Read("/a/b"), "v");
}

TEST_P(StorePolicyTest, WatchSelfFiresOnRegistration) {
  WatchHit hit = store_.AddWatch(7, "/local/domain/9/device", "tok");
  EXPECT_EQ(hit.client, 7);
  EXPECT_EQ(hit.watch_path, "local/domain/9/device");
  EXPECT_EQ(hit.fired_path, "local/domain/9/device");
  EXPECT_EQ(hit.token, "tok");
  EXPECT_EQ(store_.num_watches(), 1);
}

TEST_P(StorePolicyTest, ReplayWatchesPreservesRegistrationOrder) {
  store_.AddWatch(1, "/a", "t1");
  store_.AddWatch(2, "/b", "t2");
  store_.AddWatch(3, "/a/x", "t3");
  store_.RemoveWatch(2, "/b", "t2");  // A gap must not reorder survivors.
  store_.AddWatch(4, "/c", "t4");
  std::vector<WatchHit> replay = store_.ReplayWatches();
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].client, 1);
  EXPECT_EQ(replay[1].client, 3);
  EXPECT_EQ(replay[2].client, 4);
  EXPECT_EQ(replay[2].fired_path, "c");
}

TEST_P(StorePolicyTest, RemoveClientWatchesReleasesOnlyThatClient) {
  store_.AddWatch(1, "/a", "t1");
  store_.AddWatch(5, "/a", "mine-a");
  store_.AddWatch(2, "/b", "t2");
  store_.AddWatch(5, "/b", "mine-b");
  store_.AddWatch(5, "/a", "mine-a2");  // second watch on a prefix it holds
  store_.AddWatch(5, "/c", "mine-c");
  store_.AddWatch(3, "/a", "t3");
  store_.AddWatch(5, "/d", "gone");
  store_.RemoveWatch(5, "/d", "gone");
  // Only this client watches /c, twice: the first visit must not free the
  // bucket (and the key both entries point at) before the second.
  store_.AddWatch(5, "/c", "mine-c2");
  EXPECT_EQ(store_.num_watches(), 8);
  store_.RemoveClientWatches(5);
  EXPECT_EQ(store_.last_effort().watch_checks, 0);
  EXPECT_EQ(store_.num_watches(), 3);
  std::vector<WatchHit> replay = store_.ReplayWatches();
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].token, "t1");
  EXPECT_EQ(replay[1].token, "t2");
  EXPECT_EQ(replay[2].token, "t3");
  std::vector<WatchHit> hits;
  (void)store_.Write("/a/x", "v", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].client, 1);
  EXPECT_EQ(hits[1].client, 3);
  // Releasing again, or a client with no watches, changes nothing; a fresh
  // watch by the released client is tracked anew.
  store_.RemoveClientWatches(5);
  store_.RemoveClientWatches(42);
  EXPECT_EQ(store_.num_watches(), 3);
  store_.AddWatch(5, "/c", "again");
  store_.RemoveClientWatches(5);
  EXPECT_EQ(store_.num_watches(), 3);
}

TEST_P(StorePolicyTest, OverlappingWatchesFireInRegistrationOrder) {
  store_.AddWatch(2, "/local/domain/1", "outer");
  store_.AddWatch(1, "/local/domain/1/device", "inner");
  store_.AddWatch(3, "", "all");
  std::vector<WatchHit> hits;
  (void)store_.Write("/local/domain/1/device/vif/0", "x", hv::kDom0, kNoTxn, &hits);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].token, "outer");
  EXPECT_EQ(hits[1].token, "inner");
  EXPECT_EQ(hits[2].token, "all");
}

TEST_P(StorePolicyTest, TxnCommitFiresShadowedWritesInOrder) {
  store_.AddWatch(1, "/t", "tok");
  TxnId txn = store_.TxBegin();
  (void)store_.Write("/t/a", "1", hv::kDom0, txn);
  (void)store_.Write("/t/b", "2", hv::kDom0, txn);
  (void)store_.Write("/t/a", "3", hv::kDom0, txn);  // shadows the first write
  std::vector<WatchHit> hits;
  ASSERT_TRUE(store_.TxCommit(txn, false, &hits).ok());
  // Even when the indexed path batches the shadowed write, its watch hit and
  // generation bump survive: a, b, a — exactly the unbatched sequence.
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].fired_path, "t/a");
  EXPECT_EQ(hits[1].fired_path, "t/b");
  EXPECT_EQ(hits[2].fired_path, "t/a");
  EXPECT_EQ(*store_.Read("/t/a"), "3");
}

TEST_P(StorePolicyTest, NumNodesAndOwnerAccountingTrackTree) {
  EXPECT_EQ(store_.num_nodes(), 0);
  // Dom0 seeds the shared hierarchy (as the daemon does), so guest-owned
  // accounting below is exact.
  (void)store_.Write("/local/domain", "", hv::kDom0);
  EXPECT_EQ(store_.num_nodes(), 2);
  (void)store_.Write("/local/domain/5/data/x", "v", 5);
  EXPECT_EQ(store_.num_nodes(), 5);  // + 5, data, x
  EXPECT_EQ(store_.owner_nodes(5), 3);
  (void)store_.Write("/local/domain/5/data/y", "v", 5);
  EXPECT_EQ(store_.owner_nodes(5), 4);
  EXPECT_TRUE(store_.Rm("/local/domain/5").ok());
  EXPECT_EQ(store_.num_nodes(), 2);  // local, domain survive
  EXPECT_EQ(store_.owner_nodes(5), 0);
  EXPECT_EQ(store_.owner_nodes(hv::kDom0), 2);
}

TEST_P(StorePolicyTest, QuotaRejectsGuestCreationBeyondBudget) {
  store_.set_node_quota(4);
  // dom3's first write creates local, domain, 3, data, x — but only nodes
  // count against dom3 as owner; all five are created by dom3 here.
  lv::Status s = store_.Write("/local/domain/3/data/x", "v", 3);
  EXPECT_EQ(s.code(), ErrorCode::kQuotaExceeded);
  EXPECT_EQ(store_.num_nodes(), 0);  // Rejected before any node appeared.
  // Dom0 pre-creating the shared prefix leaves dom3 under budget.
  (void)store_.Write("/local/domain/3", "", hv::kDom0);
  EXPECT_TRUE(store_.Write("/local/domain/3/data/x", "v", 3).ok());
  EXPECT_EQ(store_.owner_nodes(3), 2);
  // Overwrites create nothing and are always admitted.
  EXPECT_TRUE(store_.Write("/local/domain/3/data/x", "v2", 3).ok());
  // Dom0 is exempt from quotas entirely.
  EXPECT_TRUE(store_.Write("/local/domain/0/a/b/c/d/e/f", "v", hv::kDom0).ok());
}

TEST_P(StorePolicyTest, QuotaPrecheckRejectsTxnBeforeApplyingAnything) {
  store_.set_node_quota(3);
  (void)store_.Write("/local/domain/4", "", hv::kDom0);
  TxnId txn = store_.TxBegin();
  (void)store_.Write("/local/domain/4/a", "1", 4, txn);
  (void)store_.Write("/local/domain/4/b", "2", 4, txn);
  (void)store_.Write("/local/domain/4/c/d", "3", 4, txn);  // 4th+5th node
  std::vector<WatchHit> hits;
  lv::Status commit = store_.TxCommit(txn, false, &hits);
  EXPECT_EQ(commit.code(), ErrorCode::kQuotaExceeded);
  // Nothing applied, no watch fired, txn discarded.
  EXPECT_FALSE(store_.Exists("/local/domain/4/a"));
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(store_.open_txns(), 0);
  EXPECT_EQ(store_.owner_nodes(4), 0);
}

INSTANTIATE_TEST_SUITE_P(Policies, StorePolicyTest,
                         ::testing::Values(StorePolicy::kLegacy, StorePolicy::kIndexed),
                         [](const ::testing::TestParamInfo<StorePolicy>& info) {
                           return StorePolicyName(info.param);
                         });

// --- Indexed fast path: the effort actually drops ----------------------------

TEST(StoreIndexedTest, UniqueNameIsOneProbe) {
  Store store(StorePolicy::kIndexed);
  for (int i = 1; i <= 50; ++i) {
    (void)store.Write(lv::StrFormat("/local/domain/%d/name", i), lv::StrFormat("vm%d", i),
                      hv::kDom0);
  }
  EXPECT_TRUE(store.CheckUniqueName("fresh").ok());
  EXPECT_EQ(store.last_effort().names_compared, 1);
  EXPECT_EQ(store.CheckUniqueName("vm17").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(store.last_effort().names_compared, 1);
  // Renames and removals keep the index honest.
  (void)store.Write("/local/domain/17/name", "renamed", hv::kDom0);
  EXPECT_TRUE(store.CheckUniqueName("vm17").ok());
  (void)store.Rm("/local/domain/23");
  EXPECT_TRUE(store.CheckUniqueName("vm23").ok());
}

TEST(StoreIndexedTest, WatchChecksAreDepthBoundedNotWatchBound) {
  Store store(StorePolicy::kIndexed);
  for (int i = 0; i < 100; ++i) {
    store.AddWatch(i, lv::StrFormat("/w/%d", i), "t");
  }
  std::vector<WatchHit> hits;
  (void)store.Write("/unrelated", "x", hv::kDom0, kNoTxn, &hits);
  // One bucket probe per ancestor prefix ("unrelated", "") — not 100 scans.
  EXPECT_EQ(store.last_effort().watch_checks, 2);
  EXPECT_TRUE(hits.empty());
}

TEST(StoreIndexedTest, ExistingPathLookupIsOneProbe) {
  Store store(StorePolicy::kIndexed);
  (void)store.Write("/a/b/c/d/e", "v", hv::kDom0);
  (void)store.Read("/a/b/c/d/e");
  EXPECT_EQ(store.last_effort().nodes_visited, 1);
  // A removal probes the path, then its parent unless that is the root.
  EXPECT_TRUE(store.Rm("/a/b/c").ok());
  EXPECT_EQ(store.last_effort().nodes_visited, 2);
  EXPECT_TRUE(store.Rm("/a").ok());
  EXPECT_EQ(store.last_effort().nodes_visited, 1);
}

}  // namespace
}  // namespace xs
