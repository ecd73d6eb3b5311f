// Microbenchmarks (google-benchmark) of the substrate primitives: these
// measure the *wall-clock* cost of the simulator itself — store operations,
// hypercalls, coroutine dispatch, full VM creation — i.e. how fast the
// reproduction runs, not simulated time.
#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "src/base/strings.h"
#include "src/core/host.h"
#include "src/sim/run.h"
#include "src/xenstore/store.h"

namespace {

void BM_StoreWrite(benchmark::State& state) {
  xs::Store store;
  int64_t i = 0;
  for (auto _ : state) {
    (void)store.Write(lv::StrFormat("/local/domain/%lld/name", (long long)(i % 1000)),
                      "vm", hv::kDom0);
    ++i;
  }
}
BENCHMARK(BM_StoreWrite);

void BM_StoreWriteWithWatches(benchmark::State& state) {
  xs::Store store;
  for (int64_t w = 0; w < state.range(0); ++w) {
    store.AddWatch(w, lv::StrFormat("/w/%lld", (long long)w), "t");
  }
  std::vector<xs::WatchHit> hits;
  for (auto _ : state) {
    hits.clear();
    (void)store.Write("/probe", "v", hv::kDom0, xs::kNoTxn, &hits);
  }
}
BENCHMARK(BM_StoreWriteWithWatches)->Arg(100)->Arg(1000)->Arg(4000);

// Releasing one client of n, each watching three prefixes of its own; the
// client's watches are re-registered off the clock.
void BM_StoreRemoveClientWatches(benchmark::State& state) {
  const int64_t n = state.range(0);
  xs::Store store;
  auto watch = [&store](int64_t c) {
    std::string self = lv::StrFormat("/local/domain/%lld", (long long)c);
    store.AddWatch(c, self + "/control/shutdown", "control");
    store.AddWatch(c, self + "/memory/target", "balloon");
    store.AddWatch(c, self + "/data", "data");
  };
  for (int64_t c = 1; c <= n; ++c) {
    watch(c);
  }
  int64_t client = 0;
  for (auto _ : state) {
    client = client % n + 1;
    store.RemoveClientWatches(client);
    state.PauseTiming();
    watch(client);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_StoreRemoveClientWatches)->Arg(1000);

void BM_TransactionCommit(benchmark::State& state) {
  xs::Store store;
  std::vector<xs::WatchHit> hits;
  for (auto _ : state) {
    xs::TxnId txn = store.TxBegin();
    for (int i = 0; i < 10; ++i) {
      (void)store.Write(lv::StrFormat("/t/%d", i), "v", hv::kDom0, txn);
    }
    (void)store.TxCommit(txn, false, &hits);
  }
}
BENCHMARK(BM_TransactionCommit);

void BM_EngineEventDispatch(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    engine.Schedule(lv::Duration::Nanos(1), [] {});
    engine.Run();
  }
}
BENCHMARK(BM_EngineEventDispatch);

void BM_CoroutineRoundTrip(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    sim::RunToCompletion(engine, [](sim::Engine& e) -> sim::Co<int> {
      co_await e.Sleep(lv::Duration::Nanos(1));
      co_return 1;
    }(engine));
  }
}
BENCHMARK(BM_CoroutineRoundTrip);

// Two jobs sharing one core: each Submit and each completion cancels and
// re-plans the core's completion event.
void BM_CpuSchedulerShare(benchmark::State& state) {
  sim::Engine engine;
  sim::CpuScheduler cpu(&engine, 1);
  auto job = [](sim::CpuScheduler& c, lv::Duration work) -> sim::Co<void> {
    co_await c.Run(0, work);
  };
  for (auto _ : state) {
    engine.Spawn(job(cpu, lv::Duration::Micros(10)));
    engine.Spawn(job(cpu, lv::Duration::Micros(20)));
    engine.Run();
  }
}
BENCHMARK(BM_CpuSchedulerShare);

void BM_Hypercall(benchmark::State& state) {
  sim::Engine engine;
  sim::CpuScheduler cpu(&engine, 1);
  hv::Hypervisor hv(&engine, lv::Bytes::GiB(4));
  sim::ExecCtx ctx{&cpu, 0, sim::kHostOwner};
  for (auto _ : state) {
    auto r = sim::RunToCompletion(engine, hv.DomainCreate(ctx));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Hypercall);

void BM_LightVmCreateBoot(benchmark::State& state) {
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
                     lightvm::Mechanisms::LightVm());
  int64_t i = 0;
  for (auto _ : state) {
    toolstack::VmConfig config;
    config.name = lv::StrFormat("vm%lld", (long long)i++);
    config.image = guests::DaytimeUnikernel();
    auto domid = sim::RunToCompletion(engine, host.CreateAndBoot(std::move(config)));
    benchmark::DoNotOptimize(domid);
  }
}
BENCHMARK(BM_LightVmCreateBoot);

void BM_XlCreateBoot(benchmark::State& state) {
  sim::Engine engine;
  lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(), lightvm::Mechanisms::Xl());
  int64_t i = 0;
  for (auto _ : state) {
    toolstack::VmConfig config;
    config.name = lv::StrFormat("vm%lld", (long long)i++);
    config.image = guests::DaytimeUnikernel();
    auto domid = sim::RunToCompletion(engine, host.CreateAndBoot(std::move(config)));
    benchmark::DoNotOptimize(domid);
  }
}
BENCHMARK(BM_XlCreateBoot);

// Console reporter that additionally records every run into the
// bench::Report artifact, so `--json=<file>` captures the microbenchmark
// numbers in the same schema as the figure benchmarks.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      bench::Point(run.benchmark_name(),
                   {{"real_ns", run.GetAdjustedRealTime()},
                    {"cpu_ns", run.GetAdjustedCPUTime()},
                    {"iterations", static_cast<double>(run.iterations)}});
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // --json=<file> belongs to the bench report; everything else is
  // google-benchmark's (--benchmark_filter=..., etc.).
  std::vector<char*> report_args{argv[0]};
  std::vector<char*> gbench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      report_args.push_back(argv[i]);
    } else {
      gbench_args.push_back(argv[i]);
    }
  }
  int report_argc = static_cast<int>(report_args.size());
  bench::Report::Get().Init(report_argc, report_args.data(), "micro_ops");
  bench::Report::Get().SetTitle(
      "substrate microbenchmarks (wall-clock, not simulated time)",
      "google-benchmark over store ops, hypercalls, coroutine dispatch, VM creation");

  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc, gbench_args.data())) {
    return 1;
  }
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  bench::Report::Get().Write();
  return 0;
}
