#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "simx/platform.hpp"

namespace {

using simx::Host;
using simx::Platform;
using simx::SpeedProfile;

TEST(Host, ConstantSpeedFinishTime) {
  Host h("h", 1e9, 0);
  EXPECT_DOUBLE_EQ(h.finish_time(0.0, 2e9), 2.0);
  EXPECT_DOUBLE_EQ(h.finish_time(5.0, 5e8), 5.5);
}

TEST(Host, ZeroFlopsFinishImmediately) {
  Host h("h", 1e9, 0);
  EXPECT_DOUBLE_EQ(h.finish_time(3.0, 0.0), 3.0);
}

TEST(Host, RejectsNonPositiveSpeed) {
  EXPECT_THROW(Host("h", 0.0, 0), std::invalid_argument);
  EXPECT_THROW(Host("h", -1.0, 0), std::invalid_argument);
}

TEST(Host, ProfileSlowdownMidWork) {
  Host h("h", 1e9, 0);
  // Full speed until t=1, half speed afterwards.
  h.set_speed_profile(SpeedProfile{{0.0, 1.0}, {1e9, 5e8}});
  // 2e9 flops from t=0: 1e9 done by t=1, remaining 1e9 at 5e8/s -> +2s.
  EXPECT_DOUBLE_EQ(h.finish_time(0.0, 2e9), 3.0);
}

TEST(Host, ProfileStoppedSegmentPausesWork) {
  Host h("h", 1e9, 0);
  // Stopped between t=1 and t=2 (a failure/perturbation window).
  h.set_speed_profile(SpeedProfile{{0.0, 1.0, 2.0}, {1e9, 0.0, 1e9}});
  EXPECT_DOUBLE_EQ(h.finish_time(0.0, 1.5e9), 2.5);
}

TEST(Host, ProfileStartMidSegment) {
  Host h("h", 1e9, 0);
  h.set_speed_profile(SpeedProfile{{0.0, 10.0}, {1e9, 2e9}});
  // Start at t=9.5: 0.5s at 1e9 then the rest at 2e9.
  EXPECT_DOUBLE_EQ(h.finish_time(9.5, 1.5e9), 10.5);
}

TEST(Host, ForeverStoppedThrows) {
  Host h("h", 1e9, 0);
  h.set_speed_profile(SpeedProfile{{0.0, 1.0}, {1e9, 0.0}});
  EXPECT_THROW((void)h.finish_time(2.0, 1.0), std::runtime_error);
}

TEST(SpeedProfile, ValidatesInvariants) {
  EXPECT_THROW((SpeedProfile{{}, {}}.validate()), std::invalid_argument);
  EXPECT_THROW((SpeedProfile{{1.0}, {1e9}}.validate()), std::invalid_argument);  // t0 != 0
  EXPECT_THROW((SpeedProfile{{0.0, 0.0}, {1.0, 2.0}}.validate()), std::invalid_argument);
  EXPECT_THROW((SpeedProfile{{0.0}, {-1.0}}.validate()), std::invalid_argument);
  EXPECT_NO_THROW((SpeedProfile{{0.0, 1.0}, {1e9, 0.0}}.validate()));
}

TEST(Platform, HostsAreAddressedByIndex) {
  Platform p;
  const Host& a = p.add_host("a", 1e9);
  const Host& b = p.add_host("b", 5e8);
  EXPECT_EQ(p.host_count(), 2u);
  EXPECT_EQ(a.index(), 0u);
  EXPECT_EQ(b.index(), 1u);
  EXPECT_EQ(&p.host_at(1), &b);
  EXPECT_DOUBLE_EQ(p.host_at(1).speed(), 5e8);
  EXPECT_THROW((void)p.host_at(2), std::out_of_range);
}

TEST(Platform, RouteCostIsLatencyPlusTransfer) {
  Platform p;
  const Host& a = p.add_host("a", 1e9);
  const Host& b = p.add_host("b", 1e9);
  p.add_route(a, b, /*bandwidth=*/1e6, /*latency=*/0.001);
  // 1000 bytes at 1e6 B/s = 1 ms, plus 1 ms latency.
  EXPECT_DOUBLE_EQ(p.comm_time(a, b, 1000), 0.002);
  // Symmetric.
  EXPECT_DOUBLE_EQ(p.comm_time(b, a, 1000), 0.002);
  // Re-registering the pair (either way round) overwrites the route:
  // 2 ms latency plus 1000 B at 5e5 B/s.
  p.add_route(b, a, 5e5, 0.002);
  EXPECT_DOUBLE_EQ(p.comm_time(a, b, 1000), 0.004);
}

TEST(Platform, StarRoutesReachEveryLeaf) {
  // mw's topology: a hub registered before its leaves, and a leaf
  // registered before the hub (the hub's row grows on both sides).
  Platform p;
  const Host& early = p.add_host("early", 1e9);
  const Host& hub = p.add_host("hub", 1e9);
  std::vector<const Host*> leaves;
  for (int i = 0; i < 4; ++i) leaves.push_back(&p.add_host("leaf", 1e9));
  p.add_route(hub, *leaves[2], 1e9, 3e-6);
  p.add_route(hub, *leaves[0], 1e9, 1e-6);
  p.add_route(hub, *leaves[3], 1e9, 4e-6);
  p.add_route(early, hub, 1e9, 5e-6);
  EXPECT_DOUBLE_EQ(p.comm_time(hub, *leaves[0], 0), 1e-6);
  EXPECT_DOUBLE_EQ(p.comm_time(*leaves[2], hub, 0), 3e-6);
  EXPECT_DOUBLE_EQ(p.comm_time(hub, *leaves[3], 0), 4e-6);
  EXPECT_DOUBLE_EQ(p.comm_time(hub, early, 0), 5e-6);
  EXPECT_THROW((void)p.comm_time(hub, *leaves[1], 0), std::runtime_error);
  EXPECT_THROW((void)p.comm_time(*leaves[0], *leaves[2], 0), std::runtime_error);
}

TEST(Platform, SameHostIsFree) {
  Platform p;
  const Host& a = p.add_host("a", 1e9);
  EXPECT_DOUBLE_EQ(p.comm_time(a, a, 1 << 20), 0.0);
}

TEST(Platform, MissingRouteThrows) {
  Platform p;
  const Host& a = p.add_host("a", 1e9);
  const Host& b = p.add_host("b", 1e9);
  EXPECT_THROW((void)p.comm_time(a, b, 1), std::runtime_error);
}

TEST(Platform, RejectsInvalidLinkParameters) {
  Platform p;
  const Host& a = p.add_host("a", 1e9);
  const Host& b = p.add_host("b", 1e9);
  EXPECT_THROW(p.add_route(a, b, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(p.add_route(a, b, -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(p.add_route(a, b, 1e6, -1e-6), std::invalid_argument);
  EXPECT_THROW((void)p.comm_time(a, b, 1), std::runtime_error);  // nothing registered
}

TEST(Platform, NearNullNetworkIsEffectivelyFree) {
  // The BOLD study's "very high bandwidth, very low latency" regime.
  Platform p;
  const Host& master = p.add_host("master", 1e9);
  const Host& worker = p.add_host("w0", 1e9);
  p.add_route(master, worker, /*bandwidth=*/1e21, /*latency=*/1e-12);
  EXPECT_LT(p.comm_time(master, worker, 1 << 20), 1e-9);  // far below any task-time scale
}

}  // namespace
