// Layer probes: host time of single calls into one layer, outside any
// workload, sized from the traced run's live population and queue depth.
// They run only in the traced run, never beside the end-to-end rounds.
#include <algorithm>
#include <limits>

#include "perfbench/perfbench.h"
#include "src/base/assert.h"
#include "src/base/strings.h"
#include "src/cluster/placement.h"
#include "src/hv/hypervisor.h"
#include "src/sim/engine.h"
#include "src/sim/run.h"
#include "src/xenstore/store.h"

namespace perfbench {
namespace {

constexpr int kBatches = 5;

// Results flow here so the optimizer cannot drop the probed calls.
volatile int64_t g_sink = 0;
void Keep(int64_t v) { g_sink = g_sink + v; }

// The fastest of kBatches results of `batch()` (ns per call), scaled to the
// reference machine speed like a Meter phase.
template <typename Batch>
double BestOfBatches(Batch&& batch) {
  double kernel = ReferenceKernelSeconds();
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < kBatches; ++b) {
    best = std::min(best, batch());
  }
  kernel += ReferenceKernelSeconds();
  return best * Meter::kReferenceSeconds / (0.5 * kernel);
}

// Mean ns per call over batches of `iters` calls of `call(i)`.
template <typename Fn>
double BestBatchNs(int iters, Fn&& call) {
  int64_t i = 0;
  return BestOfBatches([&] {
    int64_t t0 = WallNanos();
    for (int k = 0; k < iters; ++k) {
      call(i++);
    }
    return static_cast<double>(WallNanos() - t0) / iters;
  });
}

std::string DomainPath(int64_t d) { return lv::StrFormat("/local/domain/%lld", (long long)d); }

// A legacy store shaped like an xl host's with `n` guests: each has a name,
// control, memory and vif nodes plus the backend's mirror, the guest's three
// watches and the backend's frontend-state watch (client 0). Nodes go in
// before watches so populating stays linear.
void Populate(xs::Store* store, int64_t n) {
  for (int64_t d = 1; d <= n; ++d) {
    std::string self = DomainPath(d);
    std::string backend = lv::StrFormat("/local/domain/0/backend/vif/%lld/0", (long long)d);
    (void)store->Write(self + "/name", lv::StrFormat("vm-%lld", (long long)d), hv::kDom0);
    (void)store->Write(self + "/control/shutdown", "", hv::kDom0);
    (void)store->Write(self + "/memory/target", "3686", hv::kDom0);
    (void)store->Write(self + "/device/vif/0/backend", backend, hv::kDom0);
    (void)store->Write(self + "/device/vif/0/state", "4", hv::kDom0);
    (void)store->Write(backend + "/frontend", self + "/device/vif/0", hv::kDom0);
    (void)store->Write(backend + "/state", "4", hv::kDom0);
  }
  for (int64_t d = 1; d <= n; ++d) {
    std::string self = DomainPath(d);
    store->AddWatch(d, self + "/control/shutdown", "control");
    store->AddWatch(d, self + "/memory/target", "balloon");
    store->AddWatch(d, self + "/data", "data");
    store->AddWatch(0, self + "/device/vif/0/state", "backend");
  }
}

void StoreProbes(int64_t n, std::vector<std::pair<std::string, double>>* out) {
  constexpr int kIters = 200;
  xs::Store store(xs::StorePolicy::kLegacy);
  Populate(&store, n);
  std::vector<std::string> selves;
  for (int64_t d = 1; d <= n; ++d) {
    selves.push_back(DomainPath(d));
  }
  auto self = [&](int64_t i) -> const std::string& {
    return selves[static_cast<size_t>(i % n)];
  };
  std::vector<xs::WatchHit> hits;

  out->emplace_back("xenstore.write_ns", BestBatchNs(kIters, [&](int64_t i) {
    hits.clear();
    Keep(store.Write(self(i) + "/data/probe", "v", hv::kDom0, xs::kNoTxn, &hits).ok());
  }));
  out->emplace_back("xenstore.unique_name_ns", BestBatchNs(kIters, [&](int64_t) {
    Keep(store.CheckUniqueName("vm-fresh").ok());
  }));
  out->emplace_back("xenstore.tx_commit_ns", BestBatchNs(kIters, [&](int64_t i) {
    hits.clear();
    xs::TxnId txn = store.TxBegin();
    const std::string vif = self(i) + "/device/vif/0";
    (void)store.Write(vif + "/state", "1", hv::kDom0, txn);
    (void)store.Write(vif + "/mac", "00:16:3e:00:00:01", hv::kDom0, txn);
    (void)store.Write(vif + "/handle", "0", hv::kDom0, txn);
    (void)store.Write(vif + "/backend-id", "0", hv::kDom0, txn);
    Keep(store.TxCommit(txn, false, &hits).ok());
  }));

  // Only the removals are timed; each client's watches are re-registered
  // between them so every removal finds a full store.
  int64_t client = 0;
  out->emplace_back("xenstore.remove_client_ns", BestOfBatches([&] {
    int64_t removal_ns = 0;
    for (int k = 0; k < kIters; ++k) {
      client = client % n + 1;
      int64_t t0 = WallNanos();
      store.RemoveClientWatches(client);
      removal_ns += WallNanos() - t0;
      const std::string& s = self(client - 1);
      store.AddWatch(client, s + "/control/shutdown", "control");
      store.AddWatch(client, s + "/memory/target", "balloon");
      store.AddWatch(client, s + "/data", "data");
    }
    return static_cast<double>(removal_ns) / kIters;
  }));

  // A write under a prefix that every one of the n clients watches.
  for (int64_t d = 1; d <= n; ++d) {
    store.AddWatch(d, "/probe/fire", "fire");
  }
  out->emplace_back("xenstore.watch_fire_ns", BestBatchNs(kIters, [&](int64_t) {
    hits.clear();
    Keep(store.Write("/probe/fire/x", "v", hv::kDom0, xs::kNoTxn, &hits).ok());
    Keep(static_cast<int64_t>(hits.size()));
  }));
}

void EngineProbes(size_t depth, std::vector<std::pair<std::string, double>>* out) {
  constexpr int kIters = 20000;
  sim::Engine engine;
  // The standing queue: events far beyond every probe event.
  for (size_t q = 0; q < depth; ++q) {
    engine.Schedule(lv::Duration::Seconds(3600) + lv::Duration::Nanos(static_cast<int64_t>(q)),
                    [] {});
  }
  out->emplace_back("sim.dispatch_ns", BestBatchNs(kIters, [&](int64_t) {
    engine.Schedule(lv::Duration::Nanos(1), [] { Keep(1); });
    engine.Step();
  }));
  out->emplace_back("sim.coroutine_ns", BestBatchNs(kIters, [&](int64_t) {
    engine.Spawn([](sim::Engine* e) -> sim::Co<void> {
      co_await e->Sleep(lv::Duration::Nanos(1));
      Keep(1);
    }(&engine));
    engine.Step();
  }));
}

void HypervisorProbe(int64_t n, std::vector<std::pair<std::string, double>>* out) {
  constexpr int kIters = 2000;
  sim::Engine engine;
  sim::CpuScheduler cpu(&engine, 1);
  hv::Hypervisor hv(&engine, lv::Bytes::GiB(128));
  sim::ExecCtx ctx{&cpu, 0, sim::kHostOwner};
  for (int64_t d = 0; d < n; ++d) {
    LV_CHECK(sim::RunToCompletion(engine, hv.DomainCreate(ctx)).ok());
  }
  out->emplace_back("hv.domain_create_ns", BestBatchNs(kIters, [&](int64_t) {
    auto id = sim::RunToCompletion(engine, hv.DomainCreate(ctx));
    LV_CHECK(id.ok());
    Keep(sim::RunToCompletion(engine, hv.DomainDestroy(ctx, *id)).ok());
  }));
}

void PlacementProbe(int64_t n, std::vector<std::pair<std::string, double>>* out) {
  constexpr int kIters = 100000;
  constexpr int kNodes = 4;
  std::unique_ptr<cluster::PlacementPolicy> policy = cluster::MakePolicy("least-loaded");
  toolstack::VmConfig config;
  config.image = guests::DaytimeUnikernel();
  std::vector<cluster::NodeView> views(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    cluster::NodeView& v = views[static_cast<size_t>(i)];
    v.index = i;
    v.vms = n / kNodes;
    v.memory_budget = lv::Bytes::GiB(127);
    v.memory_committed = config.image.memory * v.vms;
    v.vcpu_budget = 2016;
    v.vcpus_committed = v.vms;
  }
  out->emplace_back("cluster.pick_ns", BestBatchNs(kIters, [&](int64_t i) {
    int pick = policy->Pick(views, config);
    Keep(pick);
    // Moves the least-loaded node each call, like a placement would.
    ++views[static_cast<size_t>(pick >= 0 ? pick : i % kNodes)].vms;
  }));
}

}  // namespace

std::vector<std::pair<std::string, double>> RunProbes(int64_t population,
                                                      size_t queue_depth) {
  std::vector<std::pair<std::string, double>> out;
  int64_t n = std::max<int64_t>(population, 1);
  EngineProbes(std::max<size_t>(queue_depth, 1), &out);
  StoreProbes(n, &out);
  HypervisorProbe(n, &out);
  PlacementProbe(n, &out);
  return out;
}

}  // namespace perfbench
