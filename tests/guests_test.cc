// Tests for guest images, boot logic (both enumeration paths), background
// tasks, the suspend protocol and the syscall-history dataset.
#include <gtest/gtest.h>

#include <optional>

#include "src/core/host.h"
#include "src/guests/apps.h"
#include "src/guests/guest.h"
#include "src/guests/image.h"
#include "src/guests/syscall_table.h"
#include "src/sim/run.h"

namespace guests {
namespace {

using lv::Bytes;
using lv::Duration;
using lv::TimePoint;

TEST(ImageTest, PaperAnchors) {
  GuestImage daytime = DaytimeUnikernel();
  EXPECT_EQ(daytime.image_size, Bytes::KiB(480));
  EXPECT_NEAR(daytime.memory.mib(), 3.6, 0.01);
  EXPECT_EQ(daytime.kind, GuestKind::kUnikernel);
  EXPECT_EQ(daytime.boot_wait_phases, 0);

  GuestImage debian = DebianVm();
  EXPECT_NEAR(debian.image_size.mib(), 1100, 1);
  EXPECT_EQ(debian.memory, Bytes::MiB(111));
  EXPECT_TRUE(debian.has_background_tasks());

  GuestImage tinyx = TinyxNoop();
  EXPECT_NEAR(tinyx.image_size.mib(), 9.5, 0.1);
  EXPECT_GT(tinyx.boot_wait_phases, 0);

  EXPECT_FALSE(NoopUnikernel().wants_net);
  EXPECT_GT(TlsUnikernel().tls_handshake_cpu.ms(),
            TinyxTls().tls_handshake_cpu.ms());  // lwip is ~5x slower
  EXPECT_GT(ClickOsFirewall().per_packet_cpu.ns(), 0);
}

TEST(ImageTest, PaddingOnlyGrows) {
  GuestImage padded = PaddedImage(DaytimeUnikernel(), Bytes::MiB(100));
  EXPECT_EQ(padded.image_size, Bytes::MiB(100));
  GuestImage unpadded = PaddedImage(DaytimeUnikernel(), Bytes::KiB(1));
  EXPECT_EQ(unpadded.image_size, Bytes::KiB(480));
}

TEST(SyscallTableTest, MonotonicGrowth) {
  const auto& hist = LinuxSyscallHistory();
  ASSERT_GE(hist.size(), 10u);
  for (size_t i = 1; i < hist.size(); ++i) {
    EXPECT_GE(hist[i].syscalls, hist[i - 1].syscalls);
    EXPECT_GT(hist[i].year, hist[i - 1].year);
  }
  EXPECT_EQ(hist.front().year, 2002);
  EXPECT_EQ(hist.back().syscalls, 400);  // "Linux has 400 different system calls"
  EXPECT_GT(SyscallGrowthPerYear(), 5.0);
  EXPECT_LT(SyscallGrowthPerYear(), 15.0);
}

// --- Guest boot ---------------------------------------------------------------

class GuestBootTest : public ::testing::Test {
 public:
  GuestBootTest()
      : cpu_(&engine_, 4),
        hv_(&engine_, Bytes::GiB(16)),
        switch_(&engine_),
        netback_(&engine_, &hv_, hv::DeviceType::kNet, &pages_, &switch_, &dev_costs_),
        sysctl_(&engine_, &hv_, &pages_, &dev_costs_),
        xendevd_(&dev_costs_) {
    netback_.set_udev_hotplug(&xendevd_);
  }

  sim::ExecCtx Dom0Ctx() { return sim::ExecCtx{&cpu_, 0, sim::kHostOwner}; }

  template <typename T>
  T RunCo(sim::Co<T> co) {
    return sim::RunToCompletion(engine_, std::move(co));
  }

  // Builds a domain with a noxs-device-page environment and unpauses it;
  // the guest is still booting on return.
  std::unique_ptr<Guest> StartNoxsGuest(const GuestImage& image) {
    hv::DomainId domid = *RunCo(hv_.DomainCreate(Dom0Ctx()));
    (void)RunCo(hv_.VcpuInit(Dom0Ctx(), domid, {1}));
    (void)RunCo(hv_.PopulatePhysmap(Dom0Ctx(), domid, image.memory));
    if (image.wants_net) {
      auto info = RunCo(netback_.NoxsCreate(Dom0Ctx(), domid));
      LV_CHECK(info.ok());
      (void)RunCo(hv_.DevicePageWrite(Dom0Ctx(), hv::kDom0, domid, *info));
    }
    auto sysinfo = RunCo(sysctl_.Create(Dom0Ctx(), domid));
    LV_CHECK(sysinfo.ok());
    (void)RunCo(hv_.DevicePageWrite(Dom0Ctx(), hv::kDom0, domid, *sysinfo));

    BootEnv env;
    env.cpu = &cpu_;
    env.hv = &hv_;
    env.netback = &netback_;
    env.sysctl = &sysctl_;
    auto guest = std::make_unique<Guest>(&engine_, image, domid, env);
    hv_.FindDomain(domid)->set_start_fn(guest->MakeStartFn());
    (void)RunCo(hv_.DomainFinishBuild(Dom0Ctx(), domid));
    (void)RunCo(hv_.DomainUnpause(Dom0Ctx(), domid));
    return guest;
  }

  // StartNoxsGuest, then runs until the guest has booted.
  std::unique_ptr<Guest> BootNoxsGuest(const GuestImage& image) {
    auto guest = StartNoxsGuest(image);
    sim::RunUntilCondition(engine_, [&] { return guest->booted(); },
                           Duration::Seconds(60));
    return guest;
  }

  sim::Engine engine_;
  sim::CpuScheduler cpu_;
  hv::Hypervisor hv_;
  xnet::Switch switch_;
  xdev::ControlPages pages_;
  xdev::Costs dev_costs_;
  xdev::BackendDriver netback_;
  xdev::SysctlBackend sysctl_;
  xdev::Xendevd xendevd_;
};

TEST_F(GuestBootTest, UnikernelBootsInMilliseconds) {
  TimePoint t0 = engine_.now();
  auto guest = BootNoxsGuest(DaytimeUnikernel());
  EXPECT_TRUE(guest->booted());
  Duration boot = guest->booted_at() - t0;
  EXPECT_GT(boot.ms(), 1.0);
  EXPECT_LT(boot.ms(), 10.0);
  EXPECT_TRUE(netback_.IsConnected(guest->domid()));
}

TEST_F(GuestBootTest, NoopGuestHasNoNetDevice) {
  auto guest = BootNoxsGuest(NoopUnikernel());
  EXPECT_TRUE(guest->booted());
  EXPECT_FALSE(netback_.HasDevice(guest->domid()));
}

TEST_F(GuestBootTest, TinyxBootSlowerThanUnikernel) {
  TimePoint t0 = engine_.now();
  auto uni = BootNoxsGuest(DaytimeUnikernel());
  Duration uni_boot = uni->booted_at() - t0;
  t0 = engine_.now();
  auto tinyx = BootNoxsGuest(TinyxNoop());
  Duration tinyx_boot = tinyx->booted_at() - t0;
  EXPECT_GT(tinyx_boot.ns(), uni_boot.ns() * 10);
  tinyx->Stop();
}

TEST_F(GuestBootTest, SchedulingDelayGrowsWithPeers) {
  GuestImage image = TinyxNoop();
  // First boot: no peers.
  TimePoint t0 = engine_.now();
  auto alone = BootNoxsGuest(image);
  Duration alone_boot = alone->booted_at() - t0;
  alone->Stop();

  // Now pretend 250 guests share the core (the Figure 11 regime).
  hv::DomainId domid = *RunCo(hv_.DomainCreate(Dom0Ctx()));
  (void)RunCo(hv_.VcpuInit(Dom0Ctx(), domid, {1}));
  BootEnv env;
  env.cpu = &cpu_;
  env.hv = &hv_;
  env.netback = nullptr;
  env.peers_on_core = [] { return int64_t{250}; };
  GuestImage no_net = image;
  no_net.wants_net = false;
  auto crowded = std::make_unique<Guest>(&engine_, no_net, domid, env);
  hv_.FindDomain(domid)->set_start_fn(crowded->MakeStartFn());
  (void)RunCo(hv_.DomainFinishBuild(Dom0Ctx(), domid));
  t0 = engine_.now();
  (void)RunCo(hv_.DomainUnpause(Dom0Ctx(), domid));
  sim::RunUntilCondition(engine_, [&] { return crowded->booted(); },
                         Duration::Seconds(60));
  Duration crowded_boot = crowded->booted_at() - t0;
  EXPECT_GT(crowded_boot.ns(), alone_boot.ns() * 3);
  crowded->Stop();
}

TEST_F(GuestBootTest, BackgroundTasksBurnCpu) {
  auto guest = BootNoxsGuest(TinyxNoop());
  Duration before = cpu_.ConsumedBy(guest->domid());
  engine_.RunFor(Duration::Seconds(10));
  Duration after = cpu_.ConsumedBy(guest->domid());
  EXPECT_GT((after - before).us(), 300.0);  // ~40us/s * 10s.
  guest->Stop();
  engine_.RunFor(Duration::Seconds(2));
  Duration idle = cpu_.ConsumedBy(guest->domid());
  engine_.RunFor(Duration::Seconds(5));
  EXPECT_EQ(cpu_.ConsumedBy(guest->domid()).ns(), idle.ns());  // Stopped.
}

TEST_F(GuestBootTest, StopDuringBootLeavesNoBackgroundLoad) {
  auto guest = StartNoxsGuest(TinyxNoop());
  ASSERT_FALSE(guest->booted());
  guest->Stop();
  sim::RunUntilCondition(engine_, [&] { return guest->booted(); }, Duration::Seconds(60));
  ASSERT_TRUE(guest->booted());
  EXPECT_EQ(engine_.pending_events(), 0u);  // No slice was ever armed.
  Duration booted_usage = cpu_.ConsumedBy(guest->domid());
  engine_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(cpu_.ConsumedBy(guest->domid()).ns(), booted_usage.ns());
}

TEST_F(GuestBootTest, DestroyMidSliceFinishesOnlyThatSlice) {
  GuestImage image = TinyxNoop();
  auto guest = BootNoxsGuest(image);
  hv::DomainId domid = guest->domid();
  int core = guest->Ctx().core;
  ASSERT_TRUE(sim::RunUntilCondition(engine_, [&] { return cpu_.ActiveJobs(core) > 0; },
                                     Duration::Seconds(2)));
  Duration at_arrival = cpu_.ConsumedBy(domid);
  guest.reset();
  engine_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(cpu_.ActiveJobs(core), 0);
  EXPECT_EQ((cpu_.ConsumedBy(domid) - at_arrival).ns(), image.bg_work.ns());
}

TEST_F(GuestBootTest, UnikernelsHaveNoBackgroundLoad) {
  auto guest = BootNoxsGuest(DaytimeUnikernel());
  Duration booted_usage = cpu_.ConsumedBy(guest->domid());
  engine_.RunFor(Duration::Seconds(30));
  EXPECT_EQ(cpu_.ConsumedBy(guest->domid()).ns(), booted_usage.ns());
}

TEST_F(GuestBootTest, SysctlSuspendViaGuestHandler) {
  auto guest = BootNoxsGuest(DaytimeUnikernel());
  lv::Status s = RunCo(
      sysctl_.RequestShutdown(Dom0Ctx(), guest->domid(), hv::ShutdownReason::kSuspend));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(hv_.FindDomain(guest->domid())->state(), hv::DomainState::kSuspended);
  EXPECT_FALSE(guest->running());
}

TEST_F(GuestBootTest, ComputeBurnsGuestCpu) {
  auto guest = BootNoxsGuest(MinipythonUnikernel());
  Duration before = cpu_.ConsumedBy(guest->domid());
  RunCo([](Guest* g) -> sim::Co<bool> {
    co_await g->Compute(Duration::Millis(800));
    co_return true;
  }(guest.get()));
  EXPECT_NEAR((cpu_.ConsumedBy(guest->domid()) - before).ms(), 800.0, 1.0);
}

TEST_F(GuestBootTest, PingResponderAnswersViaSwitch) {
  auto guest = BootNoxsGuest(DaytimeUnikernel());
  PingResponder responder(guest.get(), &netback_, &switch_);

  std::optional<TimePoint> reply_at;
  (void)switch_.AddPort("client", [&](const xnet::Packet& p) {
    if (p.is_reply) {
      reply_at = engine_.now();
    }
  });
  xnet::Packet ping;
  ping.kind = xnet::PacketKind::kPing;
  ping.src = "client";
  ping.dst = xdev::VifName(guest->domid(), 0);
  engine_.Spawn([](xnet::Switch& sw, sim::ExecCtx ctx, xnet::Packet p) -> sim::Co<void> {
    co_await sw.Forward(ctx, p);
  }(switch_, Dom0Ctx(), ping));
  sim::RunUntilCondition(engine_, [&] { return reply_at.has_value(); },
                         Duration::Seconds(5));
  EXPECT_TRUE(reply_at.has_value());
  EXPECT_EQ(responder.pings_answered(), 1);
}

TEST_F(GuestBootTest, TlsServerThroughputTracksImageCost) {
  auto tinyx = BootNoxsGuest(TinyxTls());
  TlsServer server(tinyx.get());
  TimePoint t0 = engine_.now();
  RunCo([](TlsServer* s) -> sim::Co<bool> {
    for (int i = 0; i < 10; ++i) {
      co_await s->HandleRequest();
    }
    co_return true;
  }(&server));
  Duration elapsed = engine_.now() - t0;
  EXPECT_NEAR(elapsed.ms(), 100.0, 5.0);  // 10 x 10ms handshakes.
  EXPECT_EQ(server.requests_served(), 10);
  tinyx->Stop();
}

// A whole host torn down while a guest's idle-service slice is on its core:
// the guest cancels its load, the scheduler drops the slice, and no event
// fires during teardown. Under ASan this also proves nothing is left
// pointing at the freed guest or scheduler.
TEST(GuestTeardownTest, HostTeardownMidSliceNeedsNoDrain) {
  sim::Engine engine;
  auto host = std::make_unique<lightvm::Host>(&engine, lightvm::HostSpec::Xeon4Core(),
                                              lightvm::Mechanisms::ChaosNoxs());
  toolstack::VmConfig config;
  config.name = "tinyx0";
  config.image = TinyxNoop();
  auto domid = sim::RunToCompletion(engine, host->CreateAndBoot(config));
  ASSERT_TRUE(domid.ok());
  int core = host->guest(*domid)->Ctx().core;
  ASSERT_TRUE(sim::RunUntilCondition(
      engine, [&] { return host->cpu().ActiveJobs(core) > 0; }, Duration::Seconds(2)));
  uint64_t fired = engine.processed_events();
  host.reset();
  EXPECT_EQ(engine.processed_events(), fired);
  engine.Run();
}

}  // namespace
}  // namespace guests
