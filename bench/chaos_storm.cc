// Chaos storm: deterministic fault injection against the self-healing
// cluster. Deploys a fleet of daytime unikernels while a seeded FaultPlan
// crashes nodes, reboots them, stalls hotplug scripts, partitions the
// migration fabric and fails creates transiently. The health monitor must
// detect every dead node and re-place its VMs on the survivors.
//
//   chaos_storm [--vms=2000] [--nodes=6] [--concurrency=16] [--seed=42]
//               [--events=24] [--horizon-ms=2000] [--json=<file>]
//               [--flight-out=<file>]
//
// Reports recovery-time percentiles, VMs lost vs recovered, and the
// admission-budget drift (must be zero: every commit matched by exactly one
// release, across every crash interleaving). Runs are deterministic: the
// same seed + plan give byte-identical output, injector log included.
#include <cstdio>
#include <cstring>

#include "bench/common.h"
#include "src/base/stats.h"
#include "src/cluster/cluster.h"
#include "src/core/verify.h"
#include "src/faults/injector.h"

namespace {

struct FleetState {
  sim::Engine* engine = nullptr;
  cluster::Cluster* cl = nullptr;
  int total = 0;
  int next = 0;
  int done = 0;
  int64_t failed = 0;
};

// Like fleet_density's worker, but fault-tolerant: a deploy that loses both
// its placement rounds to dying nodes is counted, not fatal.
sim::Co<void> Worker(FleetState* st) {
  while (st->next < st->total) {
    int i = st->next++;
    toolstack::VmConfig config;
    config.name = lv::StrFormat("fleet%d", i);
    config.image = guests::DaytimeUnikernel();
    auto handle = co_await st->cl->Deploy(std::move(config), /*wait_boot=*/true);
    if (!handle.ok()) {
      ++st->failed;
    }
    ++st->done;
  }
}

}  // namespace

int main(int argc, char** argv) {
  int vms = 2000;
  int nodes = 6;
  int concurrency = 16;
  uint64_t seed = 42;
  int events = 24;
  double horizon_ms = 2000.0;
  std::vector<char*> report_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--vms=", 6) == 0) {
      vms = std::atoi(arg + 6);
    } else if (std::strncmp(arg, "--nodes=", 8) == 0) {
      nodes = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--concurrency=", 14) == 0) {
      concurrency = std::atoi(arg + 14);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--events=", 9) == 0) {
      events = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--horizon-ms=", 13) == 0) {
      horizon_ms = std::atof(arg + 13);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      report_args.push_back(argv[i]);
    } else if (std::strncmp(arg, "--flight-out=", 13) == 0) {
      // Arms the always-on flight recorder's post-mortem dump: written only
      // when the run fails (FailRun, invariant violation).
      obs::FlightRecorder::Get().set_dump_path(arg + 13);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--vms=N] [--nodes=N] [--concurrency=N] [--seed=N] "
                   "[--events=N] [--horizon-ms=MS] [--json=<file>] "
                   "[--flight-out=<file>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (nodes < 2) {
    std::fprintf(stderr, "chaos needs >= 2 nodes (a survivor to evacuate onto)\n");
    return 2;
  }
  int report_argc = static_cast<int>(report_args.size());
  bench::Report::Get().Init(report_argc, report_args.data(), "chaos");
  bench::Header("Chaos storm",
                "seeded fault injection against the self-healing cluster",
                lv::StrFormat("%d daytime unikernels, %d nodes, concurrency %d, "
                              "%d random faults over %.0fms, seed %llu",
                              vms, nodes, concurrency, events, horizon_ms,
                              (unsigned long long)seed));
  bench::Report::Get().Config("vms", static_cast<double>(vms));
  bench::Report::Get().Config("nodes", static_cast<double>(nodes));
  bench::Report::Get().Config("concurrency", static_cast<double>(concurrency));
  bench::Report::Get().Config("seed", static_cast<double>(seed));
  bench::Report::Get().Config("events", static_cast<double>(events));

  sim::Engine engine(seed);
  cluster::ClusterSpec spec;
  spec.num_nodes = nodes;
  spec.node = lightvm::HostSpec::Amd64Core();
  spec.mechanisms = lightvm::Mechanisms::LightVm();
  cluster::Cluster cl(&engine, spec, cluster::MakePolicy("least-loaded"));
  for (int n = 0; n < nodes; ++n) {
    cl.host(n).AddShellFlavor(guests::DaytimeUnikernel().memory, true, 8);
    cl.host(n).PrefillShellPool();
  }
  cl.StartHealthMonitor();

  faults::FaultPlan plan =
      faults::FaultPlan::Random(seed, nodes, events, lv::Duration::MillisF(horizon_ms));
  faults::FaultTargets targets;
  targets.crash_node = [&](int node) { cl.CrashNode(node); };
  targets.reboot_node = [&](int node) { cl.RequestReboot(node); };
  targets.restart_xenstore = [&](int node, lv::Duration downtime) {
    if (cl.host(node).store() != nullptr) {
      cl.host(node).store()->InjectRestart(downtime);
    }
  };
  targets.stall_hotplug = [&](int node, lv::Duration stall, int count) {
    cl.host(node).fault_hooks().hotplug_stall = stall;
    cl.host(node).fault_hooks().stall_next_hotplugs += count;
  };
  targets.partition_link = [&](int a, int b, lv::Duration length) {
    cl.link(a, b)->Partition(length);
  };
  targets.fail_creates = [&](int node, int count) {
    cl.host(node).fault_hooks().fail_next_creates += count;
  };
  faults::FaultInjector injector(&engine, std::move(plan), std::move(targets));
  injector.Arm();

  FleetState st;
  st.engine = &engine;
  st.cl = &cl;
  st.total = vms;
  for (int w = 0; w < concurrency; ++w) {
    engine.Spawn(Worker(&st));
  }
  bool finished = sim::RunUntilCondition(engine, [&] { return st.done >= st.total; },
                                         lv::Duration::Seconds(7200));
  if (!finished) {
    bench::FailRun(lv::StrFormat("fleet stalled at %d/%d VMs", st.done, st.total));
  }
  // Let the tail of the plan land, every crashed node finish its settle
  // pass (it destroys the dead node's VMs over simulated time), and every
  // evacuation drain before reading the recovery ledger.
  bool recovered = sim::RunUntilCondition(
      engine,
      [&] {
        if (injector.injected() != static_cast<int64_t>(injector.plan().size())) {
          return false;
        }
        for (int n = 0; n < nodes; ++n) {
          if (cl.host(n).crashed() && !cl.host(n).crash_settled()) {
            return false;
          }
        }
        return cl.vms_lost() == cl.vms_recovered() + cl.vms_unrecovered();
      },
      lv::Duration::Seconds(7200));
  if (!recovered) {
    bench::FailRun("recovery stalled: evacuation queue never drained");
  }

  std::printf("\n## faults (%lld injected)\n", (long long)injector.injected());
  for (const std::string& line : injector.log()) {
    std::printf("%s\n", line.c_str());
  }

  lv::Samples recovery;
  for (double ms : cl.recovery_ms()) {
    recovery.Add(ms);
    bench::Point("recovery", {{"i", static_cast<double>(recovery.count() - 1)},
                              {"recovery_ms", ms}});
  }
  cluster::Cluster::Drift drift = cl.AdmissionDrift();
  std::printf("\n## recovery\n");
  std::printf("deploys=%d failed=%lld node_failures=%lld\n", st.done,
              (long long)st.failed, (long long)cl.node_failures());
  std::printf("vms_lost=%lld vms_recovered=%lld vms_unrecovered=%lld\n",
              (long long)cl.vms_lost(), (long long)cl.vms_recovered(),
              (long long)cl.vms_unrecovered());
  std::printf("recovery_ms: p50=%.2f p99=%.2f  retries=%lld replacements=%lld\n",
              recovery.empty() ? 0.0 : recovery.Quantile(0.5),
              recovery.empty() ? 0.0 : recovery.Quantile(0.99),
              (long long)cl.deploy_retries(), (long long)cl.deploy_replacements());
  std::printf("invariant_failures=%lld drift_mem_bytes=%lld drift_vcpus=%lld\n",
              (long long)cl.invariant_failures(), (long long)drift.memory.count(),
              (long long)drift.vcpus);
  for (int n = 0; n < nodes; ++n) {
    lv::Status ok = lightvm::VerifyNoLeakedResources(cl.host(n));
    std::printf("leak_check node%d: %s\n", n,
                ok.ok() ? "ok" : ok.error().message.c_str());
  }
  bench::Point("summary",
               {{"injected", static_cast<double>(injector.injected())},
                {"node_failures", static_cast<double>(cl.node_failures())},
                {"vms_lost", static_cast<double>(cl.vms_lost())},
                {"vms_recovered", static_cast<double>(cl.vms_recovered())},
                {"vms_unrecovered", static_cast<double>(cl.vms_unrecovered())},
                {"deploys_failed", static_cast<double>(st.failed)},
                {"recovery_p50_ms", recovery.empty() ? 0.0 : recovery.Quantile(0.5)},
                {"recovery_p99_ms", recovery.empty() ? 0.0 : recovery.Quantile(0.99)},
                {"deploy_retries", static_cast<double>(cl.deploy_retries())},
                {"replacements", static_cast<double>(cl.deploy_replacements())},
                {"invariant_failures", static_cast<double>(cl.invariant_failures())},
                {"drift_mem_bytes", static_cast<double>(drift.memory.count())},
                {"drift_vcpus", static_cast<double>(drift.vcpus)}});
  bench::Footnote("the admission ledger must show zero drift: every budget commit "
                  "is matched by exactly one release across every crash interleaving");
  bench::Report::Get().Write();
  return 0;
}
