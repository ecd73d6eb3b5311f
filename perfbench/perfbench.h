// Host-time benchmark of the simulator: shared types of the harness
// (main.cc), the workloads (workloads.cc) and the layer probes (probes.cc).
//
// Host time is what the simulator takes to run; simulated time is what the
// modelled machines would take. This benchmark measures the first and uses
// the second only as a correctness check (Digest).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/time.h"

namespace perfbench {

// CPU seconds consumed by this process (all threads). Descheduling by other
// tenants of a shared machine is not the simulator's cost, so the phases
// are timed on this clock rather than on the wall clock.
double HostSeconds();
// Monotonic wall-clock nanoseconds, for spans and probes.
int64_t WallNanos();

class SpanRecorder;

// Host seconds of one run of the fixed reference kernel (see Meter).
double ReferenceKernelSeconds();

// Host time of one phase, scaled to a reference machine speed.
//
// On a shared machine the CPU time of fixed work still drifts by up to 2x
// within seconds (other tenants' cache, memory and SMT pressure). The meter
// cuts the phase into chunks of about kChunkSeconds and, between chunks,
// times a fixed reference kernel that shares no code with the simulator
// (ordered maps of strings, a heap of std::function, only the C++ standard
// library). Each chunk's time is scaled by kReferenceSeconds over the mean
// of the kernel times around it, so a slowdown of the whole machine cancels
// out and a slowdown of the simulator does not.
class Meter {
 public:
  // The reference kernel's time on a quiet machine; only sets the scale.
  static constexpr double kReferenceSeconds = 0.002;
  static constexpr double kChunkSeconds = 0.02;

  // Traced rounds record each kernel run as a "calibrate" span.
  explicit Meter(SpanRecorder* spans);
  // Call after each unit of work (an op, a drive slice): ends the chunk
  // once it has run kChunkSeconds.
  void Tick();
  // Ends the phase; returns its scaled host seconds.
  double Stop();
  // Unscaled host seconds of the phase's chunks.
  double raw_s() const { return raw_s_; }

 private:
  void EndChunk();

  SpanRecorder* spans_;
  double kernel_s_ = 0.0;
  double chunk_start_ = 0.0;
  double raw_s_ = 0.0;
  double scaled_s_ = 0.0;
};

enum class OpKind : uint8_t { kCreate, kDestroy, kDeploy, kRetire, kMigrate };

// FNV-1a over every operation's simulated outcome and the final simulated
// clock. A change that only speeds the simulator up must leave it unchanged.
class Digest {
 public:
  void AddOp(OpKind kind, int node, lv::Duration latency) {
    Add(static_cast<uint64_t>(kind));
    Add(static_cast<uint64_t>(static_cast<int64_t>(node)));
    Add(static_cast<uint64_t>(latency.ns()));
  }
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;  // FNV prime.
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;  // FNV offset basis.
};

// One host-time span: round ▸ setup/timed ▸ op.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans; -1 for a root
  int64_t op = 0;   // op id within its round; 0 for phase spans
};

// In-memory span recorder of the traced rounds; written out once at exit.
class SpanRecorder {
 public:
  int Begin(const char* name, int64_t op);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the part of it that its child spans cover.
  std::vector<int64_t> SelfNanos() const;
  // Chrome trace_event JSON (complete events), loadable in Perfetto.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Records a span over its scope; with a null recorder (the untraced rounds)
// it records nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int64_t op = 0)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->End(id_);
    }
  }
  // Index of the span in its recorder; -1 when not recording.
  int id() const { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// One round: fresh state, set-up, then a timed phase of fixed work.
struct RoundResult {
  double setup_s = 0.0;  // scaled host seconds (Meter)
  double timed_s = 0.0;  // scaled host seconds (Meter)
  double timed_raw_s = 0.0;  // unscaled
  int64_t attempted = 0;  // timed-phase lifecycle operations
  int64_t failed = 0;
  int64_t setup_failed = 0;
  uint64_t digest = 0;
  uint64_t events = 0;      // engine events processed in the timed phase
  size_t peak_pending = 0;  // deepest event queue seen in the timed phase
  int64_t live_vms = 0;     // population when the timed phase ends
  int64_t retires = 0;
  // metrics::Registry counters of the layers, advanced over the timed
  // phase; names the program does not register are absent.
  std::map<std::string, double> counters;
  int round_span = -1;  // traced rounds: index of the round span
};

struct Workload {
  const char* name;
  RoundResult (*run)(uint64_t seed, SpanRecorder* spans);
  // Digest of every round at the default seed.
  uint64_t committed_digest;
};
const std::vector<Workload>& Workloads();
inline constexpr uint64_t kDefaultSeed = 1;

// Runs one tiny instance of every mechanism the workloads use, so every
// layer counter the program has is registered before the traced rounds: a
// counter a workload never touches then reads 0 rather than absent.
void RegisterLayerCounters();

// Layer probes, sized from the traced run: `population` live VMs and an
// engine queue `queue_depth` deep. Returns (metric name, ns per op).
std::vector<std::pair<std::string, double>> RunProbes(int64_t population,
                                                      size_t queue_depth);

}  // namespace perfbench
