// perfbench: host-time benchmark of the simulator. See README.md.
//
//   perfbench --workload <xl_boot|xl_churn|lightvm_fleet> [--seed N]
//             [--seconds S] [--trace 0|1] [--spans-out FILE]
//
// Runs rounds of fixed work (fresh state, set-up, timed phase) for about S
// seconds and reports the fastest rounds. --trace 0 prints the end-to-end
// metrics; --trace 1 splits the time between untraced and traced rounds,
// then runs the layer probes, and prints the per-layer metrics. Every metric
// is printed by name with its unit, and the last line of stdout is one JSON
// object. Exits 1 when a round's simulated digest disagrees with another
// round's or with the committed one, or when any operation fails.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {

double HostSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
// Results flow here so the optimizer cannot drop the kernel's work.
volatile uint64_t g_kernel_sink = 0;
}  // namespace

// Allocation-heavy ordered-map and heap work, in the simulator's style but
// none of its code.
double ReferenceKernelSeconds() {
  constexpr int kIters = 5000;
  double t0 = HostSeconds();
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  std::map<std::string, uint64_t> keys;
  std::priority_queue<std::pair<uint64_t, std::unique_ptr<std::function<void()>>>> heap;
  char buf[32];
  for (int i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::snprintf(buf, sizeof buf, "/local/domain/%u", static_cast<unsigned>(x % 8192));
    auto [it, inserted] = keys.emplace(buf, i);
    if (!inserted) {
      acc += it->second;
      keys.erase(it);
    }
    heap.emplace(x, std::make_unique<std::function<void()>>([&acc, i] { acc += i; }));
    if (heap.size() > 2048) {
      (*heap.top().second)();
      heap.pop();
    }
  }
  g_kernel_sink = acc + keys.size();
  return HostSeconds() - t0;
}

Meter::Meter(SpanRecorder* spans) : spans_(spans) {
  {
    ScopedSpan span(spans_, "calibrate");
    kernel_s_ = ReferenceKernelSeconds();
  }
  chunk_start_ = HostSeconds();
}

void Meter::Tick() {
  if (HostSeconds() - chunk_start_ >= kChunkSeconds) {
    EndChunk();
  }
}

double Meter::Stop() {
  EndChunk();
  return scaled_s_;
}

void Meter::EndChunk() {
  double chunk = HostSeconds() - chunk_start_;
  double kernel;
  {
    ScopedSpan span(spans_, "calibrate");
    kernel = ReferenceKernelSeconds();
  }
  raw_s_ += chunk;
  scaled_s_ += chunk * kReferenceSeconds / (0.5 * (kernel_s_ + kernel));
  kernel_s_ = kernel;
  chunk_start_ = HostSeconds();
}

int SpanRecorder::Begin(const char* name, int64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = WallNanos();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = WallNanos();
  open_.pop_back();
}

std::vector<int64_t> SpanRecorder::SelfNanos() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%" PRId64 "}}",
                 i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.op);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

namespace {

constexpr int kMinRounds = 3;
constexpr size_t kFastestRounds = 3;
constexpr int kMaxRounds = 200;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans-out FILE]\nworkloads:",
               msg);
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      o.workload = value;
      continue;
    }
    if (flag == "--spans-out") {
      o.spans_out = value;
      continue;
    }
    if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) {
        Usage("--seconds must be in (0, 3600]");
      }
    } else if (flag == "--trace") {
      long t = std::strtol(value, &end, 10);
      if (t != 0 && t != 1) {
        Usage("--trace must be 0 or 1");
      }
      o.trace = t == 1;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (errno != 0 || end == value || *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty()) {
    Usage("--workload is required");
  }
  return o;
}

// Keeps the process on the CPU it started on, so the reference kernel and
// the chunks it scales run on the same core (and SMT sibling) and the caches
// stay warm across rounds. Best effort: a refused request changes nothing.
void PinToCurrentCpu() {
  int cpu = sched_getcpu();
  if (cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::fprintf(stderr, "perfbench: cannot pin to cpu %d; running unpinned\n", cpu);
  }
}

// Runs rounds until `seconds` of wall time would be exceeded by one more,
// but at least `min_rounds`.
std::vector<RoundResult> RunRounds(const Workload& w, uint64_t seed, double seconds,
                                   int min_rounds, SpanRecorder* spans) {
  std::vector<RoundResult> rounds;
  rounds.reserve(kMaxRounds);
  int64_t start = WallNanos();
  for (;;) {
    double elapsed = static_cast<double>(WallNanos() - start) / 1e9;
    int n = static_cast<int>(rounds.size());
    if (n >= kMaxRounds ||
        (n >= min_rounds && elapsed + elapsed / std::max(n, 1) > seconds)) {
      break;
    }
    rounds.push_back(w.run(seed, spans));
    const RoundResult& r = rounds.back();
    std::fprintf(stderr,
                 "  %s round %d: setup %.4f s, timed %.4f s (unscaled %.4f s), %" PRId64 " ops, digest %016" PRIx64
                 "\n",
                 spans != nullptr ? "traced" : "untraced", n + 1, r.setup_s, r.timed_s,
                 r.timed_raw_s, r.attempted, r.digest);
  }
  return rounds;
}

// The round with the shortest timed phase.
const RoundResult& Fastest(const std::vector<RoundResult>& rounds) {
  return *std::min_element(rounds.begin(), rounds.end(),
                           [](const RoundResult& a, const RoundResult& b) {
                             return a.timed_s < b.timed_s;
                           });
}

// Mean timed phase of the kFastestRounds fastest rounds. A single minimum
// would also pick up the round whose reference-kernel samples happened to
// run slow (which shrinks its scaled time); averaging a few damps that.
double FastestTimedS(const std::vector<RoundResult>& rounds) {
  std::vector<double> t;
  for (const RoundResult& r : rounds) {
    t.push_back(r.timed_s);
  }
  std::sort(t.begin(), t.end());
  size_t k = std::min<size_t>(kFastestRounds, t.size());
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    sum += t[i];
  }
  return sum / static_cast<double>(k);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds) {
  std::vector<double> setups;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const RoundResult& r : rounds) {
    setups.push_back(r.setup_s);
    attempted += r.attempted;
    failed += r.failed;
  }
  // Every round does the same ops, and a run with a failure is rejected.
  double ops = static_cast<double>(rounds.front().attempted);
  return {
      {"vm_ops_per_s", ops / FastestTimedS(rounds), "1/s"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mib", PeakRssMiB(), "MiB"},
      {"ops_ok_frac", static_cast<double>(attempted - failed) / static_cast<double>(attempted),
       "frac"},
  };
}

// Highest-percentile sample with at least ten samples beyond it.
double TailOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

// core.*: host time of the sequential Host calls in one traced round, from
// the self time of their spans, scaled by the round's timed-phase Meter.
void CoreMetrics(const SpanRecorder& spans, const RoundResult& round,
                 std::vector<Metric>* out) {
  double scale = round.timed_s / round.timed_raw_s / 1e3;  // and ns -> us
  std::vector<int64_t> self = spans.SelfNanos();
  std::vector<double> create_us;
  std::vector<double> destroy_us;
  const std::vector<Span>& all = spans.spans();
  for (size_t i = static_cast<size_t>(round.round_span) + 1;
       i < all.size() && all[i].parent != -1; ++i) {
    if (std::strcmp(all[i].name, "create") == 0) {
      create_us.push_back(static_cast<double>(self[i]) * scale);
    } else if (std::strcmp(all[i].name, "destroy") == 0) {
      destroy_us.push_back(static_cast<double>(self[i]) * scale);
    }
  }
  for (auto& [kind, v] : {std::pair{"create", &create_us}, std::pair{"destroy", &destroy_us}}) {
    std::string prefix = std::string("core.") + kind + "_host_";
    out->push_back({prefix + "n", static_cast<double>(v->size()), "count"});
    if (!v->empty()) {
      out->push_back({prefix + "us_p50", Median(*v), "us"});
      out->push_back({prefix + "us_ptail", TailOf(*v), "us"});
    }
  }
}

std::vector<Metric> PerLayer(const std::vector<RoundResult>& untraced,
                             const std::vector<RoundResult>& traced, const SpanRecorder& spans) {
  // Counts repeat exactly in every round (the digest checks that the
  // simulation does); times come from the fastest rounds.
  const RoundResult& u = untraced.front();
  const RoundResult& t = Fastest(traced);
  double ops = static_cast<double>(u.attempted);
  std::vector<Metric> out = {
      {"sim.events_per_op", static_cast<double>(u.events) / ops, "count"},
      {"sim.host_ns_per_event", FastestTimedS(untraced) * 1e9 / static_cast<double>(u.events),
       "ns"},
      {"sim.peak_pending", static_cast<double>(u.peak_pending), "count"},
  };
  auto counter = [&](const char* name) -> std::optional<double> {
    auto it = u.counters.find(name);
    if (it == u.counters.end()) {
      std::fprintf(stderr, "perfbench: counter %s is not registered; its metric is absent\n",
                   name);
      return std::nullopt;
    }
    return it->second;
  };
  auto per_op = [&](const char* metric, std::initializer_list<const char*> names) {
    std::optional<double> sum;
    for (const char* name : names) {
      if (std::optional<double> v = counter(name)) {
        sum = sum.value_or(0.0) + *v;
      }
    }
    if (sum) {
      out.push_back({metric, *sum / ops, "count"});
    }
  };
  per_op("xenstore.ops_per_op", {"xenstore.daemon.ops"});
  per_op("xenstore.watch_events_per_op", {"xenstore.daemon.watch_events"});
  per_op("hv.hypercalls_per_op", {"hv.hypervisor.hypercalls"});
  per_op("devices.attaches_per_op", {"devices.backend.attaches"});
  per_op("devices.hotplug_runs_per_op",
         {"devices.hotplug.bash_runs", "devices.hotplug.xendevd_runs"});
  std::optional<double> hits = counter("toolstack.chaos.shell_pool_hits");
  std::optional<double> misses = counter("toolstack.chaos.shell_pool_misses");
  if (hits && misses) {
    double takes = *hits + *misses;
    out.push_back({"toolstack.pool_hit_frac", takes > 0 ? *hits / takes : 0.0, "frac"});
  }
  CoreMetrics(spans, t, &out);
  if (std::optional<double> v = counter("cluster.vms_deployed")) {
    out.push_back({"cluster.deploys", *v, "count"});
  }
  out.push_back({"cluster.retires", static_cast<double>(u.retires), "count"});
  if (std::optional<double> v = counter("cluster.migrations")) {
    out.push_back({"cluster.migrations", *v, "count"});
  }
  out.push_back(
      {"obs.trace_overhead_frac", FastestTimedS(traced) / FastestTimedS(untraced) - 1.0, "frac"});
  for (auto& [name, ns] : RunProbes(t.live_vms, t.peak_pending)) {
    out.push_back({name, ns, "ns"});
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : Workloads()) {
    if (opt.workload == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr) {
    Usage(("unknown workload " + opt.workload).c_str());
  }

  PinToCurrentCpu();
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  SpanRecorder spans;
  if (opt.trace) {
    RegisterLayerCounters();
    untraced = RunRounds(*w, opt.seed, opt.seconds / 2, 2, nullptr);
    traced = RunRounds(*w, opt.seed, opt.seconds / 2, 2, &spans);
  } else {
    untraced = RunRounds(*w, opt.seed, opt.seconds, kMinRounds, nullptr);
  }

  // Correctness: every round simulates the same thing, and at the default
  // seed that thing is the committed one.
  uint64_t digest = untraced.front().digest;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const std::vector<RoundResult>* rounds : {&untraced, &traced}) {
    for (const RoundResult& r : *rounds) {
      attempted += r.attempted;
      failed += r.failed;
      correct = correct && r.digest == digest && r.failed == 0 && r.setup_failed == 0;
    }
  }
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: %s: an operation failed or rounds disagree on the digest\n",
                 w->name);
  }
  if (opt.seed == kDefaultSeed && digest != w->committed_digest) {
    std::fprintf(stderr,
                 "perfbench: %s digest %016" PRIx64 " != committed %016" PRIx64
                 ": the simulated results changed\n",
                 w->name, digest, w->committed_digest);
    correct = false;
  }

  std::vector<Metric> e2e = EndToEnd(untraced);
  std::vector<Metric> layers;
  if (opt.trace) {
    layers = PerLayer(untraced, traced, spans);
    if (!opt.spans_out.empty() && !spans.WriteChromeTrace(opt.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_out.c_str());
      correct = false;
    }
  }

  std::printf("# perfbench %s seed %" PRIu64 ": %zu untraced + %zu traced rounds, digest %016" PRIx64
              "%s\n",
              w->name, opt.seed, untraced.size(), traced.size(), digest,
              correct ? "" : "  ** INCORRECT **");
  for (const std::vector<Metric>* table : {&e2e, &layers}) {
    for (const Metric& m : *table) {
      std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  const std::vector<Metric>& reported = opt.trace ? layers : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                reported[i].name.c_str(), reported[i].value, reported[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
