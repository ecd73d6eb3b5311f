// The three workloads. Each round builds fresh state, runs a set-up phase
// and then a timed phase of fixed work, so every round of every run does the
// same simulated work whatever the machine's speed. All load comes from this
// one thread on the single-engine path.
//
//   xl_boot       xl + legacy XenStore, one Xeon4Core host: sequential
//                 CreateAndBoot of daytime unikernels, growing the
//                 population from kXlBootBase to kXlBootBase + kXlBootOps.
//   xl_churn      the same host: a live population of kXlChurnBase, then a
//                 closed loop alternating DestroyVm of a seeded-random victim
//                 with CreateAndBoot.
//   lightvm_fleet 4-node Cluster, LightVM mechanisms (no XenStore),
//                 least-loaded placement: kFleetBase VMs deployed in set-up,
//                 then kFleetClients closed-loop clients issuing
//                 Deploy/Retire/Migrate at 45/45/10.
#include <algorithm>
#include <memory>
#include <optional>

#include "perfbench/perfbench.h"
#include "src/base/assert.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/core/host.h"
#include "src/metrics/metrics.h"

namespace perfbench {
namespace {

constexpr int kXlBootBase = 200;
constexpr int kXlBootOps = 800;
constexpr int kXlChurnBase = 500;
constexpr int kXlChurnOps = 1000;
constexpr int kFleetNodes = 4;
constexpr int kFleetBase = 3000;
constexpr int kFleetOps = 40000;
constexpr int kFleetClients = 8;
constexpr int kFleetPoolTarget = 8;
// Engine events per traced drive slice of the fleet (its "op" spans).
constexpr int kSliceEvents = 4096;
// Sequential Host calls after a traced round's timed phase, for the `core`
// layer's missing kind: destroys on xl_boot (it only creates), and
// create/destroy pairs on fleet node 0 (the fleet's own operations overlap).
constexpr int kCoreProbeOps = 200;

// Steps the engine until `done()`; tracks the deepest queue seen.
template <typename Pred>
void DriveUntil(sim::Engine& engine, Pred&& done, size_t* peak) {
  while (!done()) {
    *peak = std::max(*peak, engine.pending_events());
    LV_CHECK_MSG(engine.Step(), "event queue drained before the operation finished");
  }
}

// Runs one lifecycle coroutine to completion (a sequential Host call).
template <typename T>
T RunOp(sim::Engine& engine, sim::Co<T> co, size_t* peak) {
  std::optional<T> out;
  engine.Spawn([](sim::Co<T> c, std::optional<T>* o) -> sim::Co<void> {
    *o = co_await std::move(c);
  }(std::move(co), &out));
  DriveUntil(engine, [&] { return out.has_value(); }, peak);
  return std::move(*out);
}

toolstack::VmConfig DaytimeVm(std::string name) {
  toolstack::VmConfig config;
  config.name = std::move(name);
  config.image = guests::DaytimeUnikernel();
  return config;
}

// Name prefix drawn from the seed, so each seed names its VMs differently.
std::string NameTag(lv::Rng& rng) {
  return lv::StrFormat("v%06llx", (unsigned long long)(rng.Uniform(0, 0xffffff)));
}

// metrics::Registry counters read around the timed phase.
const std::vector<std::string>& LayerCounterNames() {
  static const std::vector<std::string> names = {
      "xenstore.daemon.ops",
      "xenstore.daemon.watch_events",
      "hv.hypervisor.hypercalls",
      "devices.backend.attaches",
      "devices.hotplug.bash_runs",
      "devices.hotplug.xendevd_runs",
      "toolstack.chaos.shell_pool_hits",
      "toolstack.chaos.shell_pool_misses",
      "cluster.vms_deployed",
      "cluster.migrations",
  };
  return names;
}

std::map<std::string, double> ReadLayerCounters() {
  std::map<std::string, double> out;
  for (const std::string& name : LayerCounterNames()) {
    if (const metrics::Counter* c = metrics::Registry::Get().FindCounter(name)) {
      out[name] = c->value();
    }
  }
  return out;
}

// Engine events and registry counters advanced over the timed phase.
class LayerDelta {
 public:
  explicit LayerDelta(const sim::Engine& engine)
      : events_(engine.processed_events()), counters_(ReadLayerCounters()) {}
  void Finish(const sim::Engine& engine, RoundResult* res) const {
    res->events = engine.processed_events() - events_;
    for (const auto& [name, value] : ReadLayerCounters()) {
      auto it = counters_.find(name);
      res->counters[name] = value - (it != counters_.end() ? it->second : 0.0);
    }
  }

 private:
  uint64_t events_;
  std::map<std::string, double> counters_;
};

// --- xl workloads ------------------------------------------------------------

struct XlRig {
  explicit XlRig(uint64_t seed)
      : engine(seed),
        host(&engine, lightvm::HostSpec::Xeon4Core(), lightvm::Mechanisms::Xl()),
        rng(seed),
        tag(NameTag(rng)) {}

  // One sequential CreateAndBoot; false if it failed.
  bool Create(Digest* digest, SpanRecorder* spans, int64_t op) {
    ScopedSpan span(spans, "create", op);
    lv::TimePoint t0 = engine.now();
    auto domid = RunOp(engine,
                       host.CreateAndBoot(DaytimeVm(
                           lv::StrFormat("%s-%lld", tag.c_str(), (long long)names++))),
                       &peak_pending);
    digest->AddOp(OpKind::kCreate, 0, engine.now() - t0);
    if (domid.ok()) {
      live.push_back(*domid);
    }
    return domid.ok();
  }

  // Destroys a seeded-random live VM; false if it failed.
  bool DestroyRandom(Digest* digest, SpanRecorder* spans, int64_t op) {
    size_t i = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
    hv::DomainId victim = live[i];
    live[i] = live.back();
    live.pop_back();
    ScopedSpan span(spans, "destroy", op);
    lv::TimePoint t0 = engine.now();
    lv::Status st = RunOp(engine, host.DestroyVm(victim), &peak_pending);
    digest->AddOp(OpKind::kDestroy, 0, engine.now() - t0);
    return st.ok();
  }

  sim::Engine engine;
  lightvm::Host host;
  lv::Rng rng;
  std::string tag;
  std::vector<hv::DomainId> live;
  int64_t names = 0;
  size_t peak_pending = 0;
};

// Set-up boots `base` VMs; the timed phase runs `ops` operations, creating
// only (churn == false) or alternating destroy/create (churn == true).
RoundResult RunXl(uint64_t seed, SpanRecorder* spans, int base, int ops, bool churn) {
  RoundResult res;
  Digest digest;
  ScopedSpan round(spans, "round");
  res.round_span = round.id();
  std::unique_ptr<XlRig> rig;
  {
    ScopedSpan setup(spans, "setup");
    Meter meter(spans);
    rig = std::make_unique<XlRig>(seed);
    for (int i = 0; i < base; ++i) {
      res.setup_failed += rig->Create(&digest, nullptr, 0) ? 0 : 1;
      meter.Tick();
    }
    res.setup_s = meter.Stop();
  }
  rig->peak_pending = 0;
  LayerDelta delta(rig->engine);
  {
    ScopedSpan timed(spans, "timed");
    Meter meter(spans);
    for (int64_t op = 1; op <= ops; ++op) {
      bool destroy = churn && op % 2 == 1;
      bool ok = destroy ? rig->DestroyRandom(&digest, spans, op)
                        : rig->Create(&digest, spans, op);
      ++res.attempted;
      res.failed += ok ? 0 : 1;
      meter.Tick();
    }
    res.timed_s = meter.Stop();
    res.timed_raw_s = meter.raw_s();
  }
  delta.Finish(rig->engine, &res);
  digest.Add(static_cast<uint64_t>(rig->engine.now().ns()));
  res.digest = digest.value();
  res.peak_pending = rig->peak_pending;
  res.live_vms = static_cast<int64_t>(rig->live.size());

  if (spans != nullptr && !churn) {
    ScopedSpan probe(spans, "core_probe");
    Digest unused;
    for (int64_t op = 1; op <= kCoreProbeOps; ++op) {
      LV_CHECK_MSG(rig->DestroyRandom(&unused, spans, op), "core probe destroy failed");
    }
  }
  return res;
}

RoundResult XlBoot(uint64_t seed, SpanRecorder* spans) {
  return RunXl(seed, spans, kXlBootBase, kXlBootOps, /*churn=*/false);
}

RoundResult XlChurn(uint64_t seed, SpanRecorder* spans) {
  return RunXl(seed, spans, kXlChurnBase, kXlChurnOps, /*churn=*/true);
}

// --- lightvm_fleet -------------------------------------------------------------

cluster::ClusterSpec FleetSpec() {
  cluster::ClusterSpec spec;
  spec.num_nodes = kFleetNodes;
  spec.mechanisms = lightvm::Mechanisms::LightVm();
  return spec;
}

struct FleetRig {
  explicit FleetRig(uint64_t seed)
      : engine(seed),
        cl(&engine, FleetSpec(), cluster::MakePolicy("least-loaded")),
        rng(seed),
        tag(NameTag(rng)) {}

  toolstack::VmConfig NextVm() {
    return DaytimeVm(lv::StrFormat("%s-%lld", tag.c_str(), (long long)names++));
  }

  sim::Engine engine;
  cluster::Cluster cl;
  lv::Rng rng;
  std::string tag;
  std::vector<cluster::VmHandle> live;
  int64_t names = 0;
  // The batch the clients are working through.
  int64_t total = 0;
  int64_t issued = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t retires = 0;
  bool deploy_only = false;
  Digest digest;
};

// One closed-loop client: issues its next operation only once the previous
// one has completed. Operations are recorded in completion order, which the
// engine makes deterministic.
sim::Co<void> FleetClient(FleetRig* rig) {
  while (rig->issued < rig->total) {
    ++rig->issued;
    double r = rig->deploy_only ? 0.0 : rig->rng.UniformReal(0.0, 1.0);
    lv::TimePoint t0 = rig->engine.now();
    OpKind kind = OpKind::kDeploy;
    int node = -1;
    bool ok = false;
    if (r < 0.45 || rig->live.empty()) {
      auto handle = co_await rig->cl.Deploy(rig->NextVm(), /*wait_boot=*/true);
      ok = handle.ok();
      if (ok) {
        node = handle->node;
        rig->live.push_back(*handle);
      }
    } else {
      size_t i = static_cast<size_t>(
          rig->rng.Uniform(0, static_cast<int64_t>(rig->live.size()) - 1));
      cluster::VmHandle vm = rig->live[i];
      rig->live[i] = rig->live.back();
      rig->live.pop_back();
      if (r < 0.9) {
        kind = OpKind::kRetire;
        node = vm.node;
        ok = (co_await rig->cl.Retire(vm)).ok();
        ++rig->retires;
      } else {
        kind = OpKind::kMigrate;
        node = (vm.node + 1 + static_cast<int>(rig->rng.Uniform(0, kFleetNodes - 2))) %
               kFleetNodes;
        auto moved = co_await rig->cl.Migrate(vm, node);
        ok = moved.ok();
        if (ok) {
          rig->live.push_back(*moved);
        }
      }
    }
    rig->digest.AddOp(kind, node, rig->engine.now() - t0);
    ++rig->completed;
    rig->failed += ok ? 0 : 1;
  }
}

// Runs one batch of `ops` client operations to completion, in slices of
// kSliceEvents engine events; traced rounds record each slice as an op span.
void RunFleetBatch(FleetRig* rig, int64_t ops, bool deploy_only, SpanRecorder* spans,
                   Meter& meter, size_t* peak) {
  rig->total = ops;
  rig->issued = 0;
  rig->completed = 0;
  rig->failed = 0;
  rig->deploy_only = deploy_only;
  for (int c = 0; c < kFleetClients; ++c) {
    rig->engine.Spawn(FleetClient(rig));
  }
  auto done = [rig] { return rig->completed >= rig->total; };
  for (int64_t slice = 1; !done(); ++slice) {
    {
      ScopedSpan span(spans, "drive", slice);
      int steps = 0;
      DriveUntil(rig->engine, [&] { return done() || steps++ == kSliceEvents; }, peak);
    }
    meter.Tick();
  }
}

RoundResult LightVmFleet(uint64_t seed, SpanRecorder* spans) {
  RoundResult res;
  ScopedSpan round(spans, "round");
  res.round_span = round.id();
  std::unique_ptr<FleetRig> rig;
  size_t peak = 0;
  {
    ScopedSpan setup(spans, "setup");
    Meter meter(spans);
    rig = std::make_unique<FleetRig>(seed);
    for (int n = 0; n < kFleetNodes; ++n) {
      rig->cl.host(n).AddShellFlavor(guests::DaytimeUnikernel().memory, true,
                                     kFleetPoolTarget);
      rig->cl.host(n).PrefillShellPool();
    }
    RunFleetBatch(rig.get(), kFleetBase, /*deploy_only=*/true, nullptr, meter, &peak);
    res.setup_failed = rig->failed;
    res.setup_s = meter.Stop();
  }
  peak = 0;
  LayerDelta delta(rig->engine);
  {
    ScopedSpan timed(spans, "timed");
    Meter meter(spans);
    RunFleetBatch(rig.get(), kFleetOps, /*deploy_only=*/false, spans, meter, &peak);
    res.timed_s = meter.Stop();
    res.timed_raw_s = meter.raw_s();
  }
  delta.Finish(rig->engine, &res);
  rig->digest.Add(static_cast<uint64_t>(rig->engine.now().ns()));
  res.digest = rig->digest.value();
  res.attempted = rig->completed;
  res.failed = rig->failed;
  res.retires = rig->retires;
  res.peak_pending = peak;
  res.live_vms = static_cast<int64_t>(rig->live.size());

  if (spans != nullptr) {
    ScopedSpan probe(spans, "core_probe");
    lightvm::Host& host = rig->cl.host(0);
    size_t unused_peak = 0;
    for (int64_t op = 1; op <= kCoreProbeOps; ++op) {
      std::optional<ScopedSpan> span(std::in_place, spans, "create", op);
      auto domid = RunOp(rig->engine, host.CreateAndBoot(rig->NextVm()), &unused_peak);
      span.reset();
      LV_CHECK_MSG(domid.ok(), "core probe create failed");
      ScopedSpan destroy(spans, "destroy", op);
      LV_CHECK_MSG(RunOp(rig->engine, host.DestroyVm(*domid), &unused_peak).ok(),
                   "core probe destroy failed");
    }
  }
  return res;
}

// Deploys one VM and migrates it to the next node.
sim::Co<lv::Result<cluster::VmHandle>> WarmUpCluster(cluster::Cluster* cl) {
  auto vm = co_await cl->Deploy(DaytimeVm("warmup"), /*wait_boot=*/true);
  if (!vm.ok()) {
    co_return vm;
  }
  co_return co_await cl->Migrate(*vm, (vm->node + 1) % kFleetNodes);
}

}  // namespace

void RegisterLayerCounters() {
  // xl + XenStore + bash hotplug; then LightVM with an empty shell pool (a
  // miss) and with a stocked one (a hit).
  for (auto [mechanisms, pool] : {std::pair{lightvm::Mechanisms::Xl(), 0},
                                  std::pair{lightvm::Mechanisms::LightVm(), 0},
                                  std::pair{lightvm::Mechanisms::LightVm(), 1}}) {
    sim::Engine engine;
    lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(), mechanisms);
    if (pool > 0) {
      host.AddShellFlavor(guests::DaytimeUnikernel().memory, true, pool);
      host.PrefillShellPool();
    }
    size_t peak = 0;
    auto domid = RunOp(engine, host.CreateAndBoot(DaytimeVm("warmup")), &peak);
    LV_CHECK_MSG(domid.ok(), "warm-up create failed");
    LV_CHECK_MSG(RunOp(engine, host.DestroyVm(*domid), &peak).ok(),
                 "warm-up destroy failed");
  }
  FleetRig rig(kDefaultSeed);
  size_t peak = 0;
  auto moved = RunOp(rig.engine, WarmUpCluster(&rig.cl), &peak);
  LV_CHECK_MSG(moved.ok(), "cluster warm-up deploy/migrate failed");
  LV_CHECK_MSG(RunOp(rig.engine, rig.cl.Retire(*moved), &peak).ok(),
               "cluster warm-up retire failed");
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"xl_boot", XlBoot, 0x09d3d999df53fca6},
      {"xl_churn", XlChurn, 0x7bf2200a075a6aec},
      {"lightvm_fleet", LightVmFleet, 0x0ee15ded788b9b16},
  };
  return workloads;
}

}  // namespace perfbench
