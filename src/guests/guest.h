// Guest: the software running inside a domain — kernel init, device
// enumeration (through the XenStore or through the noxs device page),
// Linux-style boot phases with scheduler-contention waits, idle background
// services, and the suspend protocol.
//
// A Guest is installed as the domain's start function; the hypervisor spawns
// it on first unpause. Everything it does costs CPU on the domain's own core
// with the domain as owner, so guest activity shows up in Figures 11 and 15.
#pragma once

#include <functional>
#include <memory>

#include "src/base/result.h"
#include "src/devices/backend.h"
#include "src/devices/sysctl.h"
#include "src/guests/image.h"
#include "src/hv/hypervisor.h"
#include "src/sim/cpu.h"
#include "src/sim/sync.h"
#include "src/xenstore/daemon.h"

namespace guests {

// Everything a guest needs from its host environment to boot.
struct BootEnv {
  sim::CpuScheduler* cpu = nullptr;
  hv::Hypervisor* hv = nullptr;
  // XenStore path (null store selects the noxs path).
  xs::Daemon* store = nullptr;
  xdev::BackendDriver* netback = nullptr;
  xdev::BackendDriver* blkback = nullptr;
  xdev::SysctlBackend* sysctl = nullptr;
  // Number of co-located guests on this guest's core; drives the per-phase
  // scheduling delay of Linux-style boots (Figure 11).
  std::function<int64_t()> peers_on_core;
  // Scheduling-delay model for Linux-style boots: each timer wait pays a
  // small linear per-peer delay, plus a super-linear term once the runnable
  // population per core exceeds what the scheduler absorbs — this is what
  // bends Tinyx's curve away from Docker's past ~250 guests/core (Fig. 11).
  lv::Duration sched_delay_per_peer = lv::Duration::Micros(40);
  lv::Duration sched_delay_cubic = lv::Duration::Nanos(23);  // * peers^3 per boot
};

class Guest {
 public:
  Guest(sim::Engine* engine, GuestImage image, hv::DomainId domid, BootEnv env);
  Guest(const Guest&) = delete;
  Guest& operator=(const Guest&) = delete;

  const GuestImage& image() const { return image_; }
  hv::DomainId domid() const { return domid_; }

  // The domain start function to install before unpausing.
  hv::Domain::StartFn MakeStartFn();

  // Restore/migration path: the guest re-attaches devices but skips the cold
  // boot work (its state arrived in the memory stream).
  void set_resume(bool resume) { resume_ = resume; }

  bool booted() const { return booted_.triggered(); }
  sim::Co<void> WaitBooted() { co_await booted_.Wait(); }
  lv::TimePoint booted_at() const { return booted_at_; }

  // Execution context of the guest's vCPU (valid after boot started).
  sim::ExecCtx Ctx() const;

  // Runs `work` of CPU on the guest's core (compute-service jobs, §7.4).
  sim::Co<void> Compute(lv::Duration work);

  // Stops background activity (domain shut down / destroyed / migrating).
  // A guest stopped before its boot finishes never starts its background
  // load.
  void Stop();
  bool running() const { return running_; }

 private:
  sim::Co<void> Boot(hv::Domain& domain);
  sim::Co<lv::Status> EnumerateDevicesNoxs(sim::ExecCtx ctx);
  sim::Co<lv::Status> EnumerateDevicesXenstore(sim::ExecCtx ctx);
  // Handles a sysctl power request: save state, shut down, ack (noxs), or
  // the equivalent control/shutdown dance over the XenStore.
  sim::Co<void> HandlePowerRequest(hv::ShutdownReason reason);
  sim::Co<void> XsControlWatcher();

  sim::Engine* engine_;
  GuestImage image_;
  hv::DomainId domid_;
  BootEnv env_;
  int boot_core_ = 0;
  bool running_ = false;
  bool resume_ = false;
  bool stopped_ = false;
  // The idle services' CPU load (Figure 15), added once boot completes.
  std::unique_ptr<sim::PeriodicLoad> bg_load_;
  sim::OneShotEvent booted_;
  lv::TimePoint booted_at_;
  std::unique_ptr<xs::XsClient> xs_client_;  // XenStore path only; keeps
                                             // watches alive for the VM's life
  // Owner-held loop frame. Declared after xs_client_ so the frame dies
  // before the watch channel it may be parked on; the channel awaiter's
  // destructor deregisters it and cancels its wakeups on the way out.
  sim::Co<void> control_watcher_;
};

}  // namespace guests
