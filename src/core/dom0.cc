#include "src/core/dom0.h"

namespace lightvm {

Dom0Services::Dom0Services(Deps deps, const Mechanisms& mechanisms) : deps_(deps) {
  switch_ = std::make_unique<xnet::Switch>(deps_.engine);
  control_pages_ = std::make_unique<xdev::ControlPages>();
  bash_hotplug_ = std::make_unique<xdev::BashHotplug>(deps_.engine, &dev_costs_);
  xendevd_ = std::make_unique<xdev::Xendevd>(&dev_costs_);
  bash_hotplug_->set_faults(deps_.faults);
  xendevd_->set_faults(deps_.faults);

  bool use_store = mechanisms.toolstack == ToolstackKind::kXl || !mechanisms.noxs;

  netback_ = std::make_unique<xdev::BackendDriver>(deps_.engine, deps_.hv,
                                                   hv::DeviceType::kNet,
                                                   control_pages_.get(), switch_.get(),
                                                   &dev_costs_);
  blkback_ = std::make_unique<xdev::BackendDriver>(deps_.engine, deps_.hv,
                                                   hv::DeviceType::kBlock,
                                                   control_pages_.get(), nullptr,
                                                   &dev_costs_);
  sysctl_ = std::make_unique<xdev::SysctlBackend>(deps_.engine, deps_.hv,
                                                  control_pages_.get(), &dev_costs_);

  // Dom0Ctx() round-robins the Dom0 cores: the store daemon, netback watcher
  // and blkback watcher land on consecutive cores in that order, exactly as
  // before the Host decomposition (core assignment is timing-relevant).
  if (use_store) {
    store_ = std::make_unique<xs::Daemon>(deps_.engine, mechanisms.xs_policy);
    store_->Start(Dom0Ctx());
    netback_->StartXsWatcher(store_.get(), Dom0Ctx());
    blkback_->StartXsWatcher(store_.get(), Dom0Ctx());
  }
  if (mechanisms.toolstack == ToolstackKind::kChaos) {
    // chaos replaces hotplug scripts with xendevd, triggered by udev events.
    netback_->set_udev_hotplug(xendevd_.get());
    blkback_->set_udev_hotplug(xendevd_.get());
  }
}

Dom0Services::~Dom0Services() {
  netback_->StopXsWatcher();
  blkback_->StopXsWatcher();
  if (store_) {
    store_->Stop();
  }
}

void Dom0Services::Populate(toolstack::HostEnv* env) const {
  env->engine = deps_.engine;
  env->cpu = deps_.cpu;
  env->placer = deps_.placer;
  env->hv = deps_.hv;
  env->store = store_.get();
  env->netback = netback_.get();
  env->blkback = blkback_.get();
  env->sysctl = sysctl_.get();
  env->control_pages = control_pages_.get();
  env->bash_hotplug = bash_hotplug_.get();
  env->xendevd = xendevd_.get();
  env->sw = switch_.get();
  env->faults = deps_.faults;
}

sim::ExecCtx Dom0Services::Dom0Ctx() {
  return sim::ExecCtx{deps_.cpu, deps_.placer->NextDom0Core(), sim::kHostOwner};
}

}  // namespace lightvm
