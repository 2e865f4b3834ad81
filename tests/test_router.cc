#include "server/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "server/client.h"
#include "server/hash_ring.h"
#include "server/server.h"
#include "test_util.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using testutil::JsonValidator;
using testutil::SmallTpch;

// ---------------------------------------------------------------------
// HashRing unit tests.
// ---------------------------------------------------------------------

std::vector<std::string> SyntheticKeys(int count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (int i = 0; i < count; ++i) keys.push_back("Q" + std::to_string(i));
  return keys;
}

TEST(HashRingTest, OwnershipIsDeterministicAcrossInsertionOrder) {
  const std::vector<HashRing::Node> nodes = {
      {"10.0.0.1", 9001}, {"10.0.0.2", 9002}, {"10.0.0.3", 9003}};
  HashRing forward;
  for (const auto& n : nodes) forward.Add(n);
  HashRing reverse;
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) reverse.Add(*it);
  for (const std::string& key : SyntheticKeys(500)) {
    auto a = forward.Owner(key);
    auto b = reverse.Owner(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().Address(), b.value().Address()) << key;
  }
}

TEST(HashRingTest, VnodesSpreadOwnershipAcrossNodes) {
  HashRing ring(/*vnodes_per_node=*/64);
  ring.Add({"10.0.0.1", 9001});
  ring.Add({"10.0.0.2", 9002});
  ring.Add({"10.0.0.3", 9003});
  std::map<std::string, int> owned;
  const auto keys = SyntheticKeys(3000);
  for (const std::string& key : keys) {
    owned[ring.Owner(key).value().Address()]++;
  }
  ASSERT_EQ(owned.size(), 3u) << "every node must own some keys";
  for (const auto& [address, count] : owned) {
    // With 64 vnodes each, no node should fall below ~1/3 of fair share.
    EXPECT_GT(count, static_cast<int>(keys.size()) / 9) << address;
  }
}

TEST(HashRingTest, RemovalOnlyMovesTheRemovedNodesKeys) {
  HashRing ring;
  const HashRing::Node a{"10.0.0.1", 9001};
  const HashRing::Node b{"10.0.0.2", 9002};
  const HashRing::Node c{"10.0.0.3", 9003};
  ring.Add(a);
  ring.Add(b);
  ring.Add(c);
  const auto keys = SyntheticKeys(2000);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) {
    before[key] = ring.Owner(key).value().Address();
  }
  ASSERT_TRUE(ring.Remove(c));
  int moved = 0;
  for (const std::string& key : keys) {
    const std::string after = ring.Owner(key).value().Address();
    if (before[key] == c.Address()) {
      ++moved;
      EXPECT_NE(after, c.Address());
    } else {
      // The defining consistent-hashing property: keys on surviving
      // nodes never move when some *other* node leaves.
      EXPECT_EQ(after, before[key]) << key;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(HashRingTest, AddIsIdempotentAndRemoveReportsAbsence) {
  HashRing ring;
  const HashRing::Node a{"10.0.0.1", 9001};
  ring.Add(a);
  ring.Add(a);
  EXPECT_EQ(ring.node_count(), 1u);
  EXPECT_TRUE(ring.Remove(a));
  EXPECT_FALSE(ring.Remove(a));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.Owner("Q1").status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// Replica placement (DESIGN.md §18).
// ---------------------------------------------------------------------

TEST(HashRingTest, ReplicaIsAlwaysADistinctShard) {
  // With few nodes and many vnodes per node, runs of *adjacent* vnodes
  // belonging to the same backend are common on the ring — exactly the
  // collision the successor walk must skip past. Exercise node counts
  // from 2 up and both sparse and dense vnode settings.
  for (const int vnodes : {1, 64, 256}) {
    for (int node_count = 2; node_count <= 5; ++node_count) {
      HashRing ring(vnodes);
      for (int i = 0; i < node_count; ++i) {
        ring.Add({"10.0.0." + std::to_string(i + 1),
                  static_cast<uint16_t>(9001 + i)});
      }
      for (const std::string& key : SyntheticKeys(2000)) {
        const auto placement = ring.PlacementFor(key);
        ASSERT_TRUE(placement.ok());
        ASSERT_TRUE(placement.value().has_replica)
            << key << " with " << node_count << " nodes";
        EXPECT_FALSE(placement.value().replica == placement.value().primary)
            << key;
        // The primary leg of the placement must agree with Owner().
        EXPECT_EQ(placement.value().primary.Address(),
                  ring.Owner(key).value().Address())
            << key;
      }
    }
  }
}

TEST(HashRingTest, SingleNodeRingHasNoReplica) {
  HashRing ring;
  ring.Add({"10.0.0.1", 9001});
  const auto placement = ring.PlacementFor("Q1");
  ASSERT_TRUE(placement.ok());
  EXPECT_FALSE(placement.value().has_replica);
  EXPECT_EQ(placement.value().primary.Address(), "10.0.0.1:9001");
  HashRing empty;
  EXPECT_EQ(empty.PlacementFor("Q1").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(HashRingTest, PlacementIsDeterministicAcrossRebuilds) {
  const std::vector<HashRing::Node> nodes = {{"10.0.0.1", 9001},
                                             {"10.0.0.2", 9002},
                                             {"10.0.0.3", 9003},
                                             {"10.0.0.4", 9004}};
  HashRing forward;
  for (const auto& n : nodes) forward.Add(n);
  HashRing reverse;
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) reverse.Add(*it);
  // A third rebuild that churns through add/remove before converging on
  // the same set — placement must be a pure function of the final set.
  HashRing churned;
  churned.Add({"10.9.9.9", 1234});
  for (const auto& n : nodes) churned.Add(n);
  ASSERT_TRUE(churned.Remove({"10.9.9.9", 1234}));
  for (const std::string& key : SyntheticKeys(1000)) {
    const auto a = forward.PlacementFor(key);
    const auto b = reverse.PlacementFor(key);
    const auto c = churned.PlacementFor(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(a.value().primary.Address(), b.value().primary.Address());
    EXPECT_EQ(a.value().replica.Address(), b.value().replica.Address());
    EXPECT_EQ(a.value().primary.Address(), c.value().primary.Address());
    EXPECT_EQ(a.value().replica.Address(), c.value().replica.Address());
  }
}

TEST(HashRingTest, PlacementMovementStaysNearOneOverNOnAddAndRemove) {
  const auto keys = SyntheticKeys(4000);
  // Adding a 5th node should re-home roughly 1/5 of the primaries; the
  // wide tolerance absorbs vnode-placement variance without letting a
  // broken ring (all keys move, or none do) slip through.
  HashRing ring;
  for (int i = 0; i < 4; ++i) {
    ring.Add({"10.0.0." + std::to_string(i + 1),
              static_cast<uint16_t>(9001 + i)});
  }
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) {
    before[key] = ring.PlacementFor(key).value().primary.Address();
  }
  const HashRing::Node fifth{"10.0.0.5", 9005};
  ring.Add(fifth);
  int moved_on_add = 0;
  for (const std::string& key : keys) {
    const auto placement = ring.PlacementFor(key).value();
    if (placement.primary.Address() != before[key]) {
      ++moved_on_add;
      // Keys only ever move *to* the new node on an add.
      EXPECT_TRUE(placement.primary == fifth) << key;
    }
  }
  const double add_fraction =
      static_cast<double>(moved_on_add) / static_cast<double>(keys.size());
  EXPECT_GT(add_fraction, 0.10);
  EXPECT_LT(add_fraction, 0.35);

  // Removing it again restores the 4-node placement exactly, so the
  // movement fraction on remove equals the fraction the node owned.
  ASSERT_TRUE(ring.Remove(fifth));
  int moved_on_remove = 0;
  for (const std::string& key : keys) {
    if (ring.PlacementFor(key).value().primary.Address() != before[key]) {
      ++moved_on_remove;
    }
  }
  EXPECT_EQ(moved_on_remove, 0)
      << "removal must restore the prior placement bit for bit";
}

// ---------------------------------------------------------------------
// Router end-to-end tests (two in-process shards behind a router).
// ---------------------------------------------------------------------

PpcFramework::Config ServingConfig() {
  PpcFramework::Config cfg;
  cfg.online.predictor.transform_count = 5;
  cfg.online.predictor.histogram_buckets = 40;
  cfg.online.predictor.radius = 0.05;
  cfg.online.predictor.confidence_threshold = 0.8;
  cfg.online.predictor.noise_fraction = 0.002;
  cfg.online.estimator_window = 100;
  cfg.plan_cache_capacity = 64;
  return cfg;
}

struct TemplateSpec {
  const char* name;
  int dims;
};

/// Every evaluation template, so placement-sensitive tests always find
/// work on both shards regardless of where the ephemeral-port ring puts
/// each template.
constexpr TemplateSpec kTemplates[] = {
    {"Q0", 2}, {"Q1", 2}, {"Q2", 2}, {"Q3", 3}, {"Q4", 3},
    {"Q5", 4}, {"Q6", 4}, {"Q7", 5}, {"Q8", 6}};

std::vector<double> PointFor(const std::string& name) {
  for (const TemplateSpec& spec : kTemplates) {
    if (name == spec.name) return std::vector<double>(spec.dims, 0.5);
  }
  return {};
}

class RouterTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 2;

  void SetUp() override {
    for (int i = 0; i < kShards; ++i) {
      frameworks_[i] =
          std::make_unique<PpcFramework>(&SmallTpch(), ServingConfig());
      for (const TemplateSpec& spec : kTemplates) {
        ASSERT_TRUE(frameworks_[i]
                        ->RegisterTemplate(EvaluationTemplate(spec.name))
                        .ok());
      }
      shards_[i] = std::make_unique<PlanServer>(frameworks_[i].get(),
                                                PlanServer::Config{});
      ASSERT_TRUE(shards_[i]->Start().ok());
    }
  }

  void StartRouter(std::vector<int> backend_indices = {0, 1}) {
    PlanRouter::Config config;
    config.idle_poll_ms = 10;
    // Keep these tests deterministic: no background prober, so breaker
    // state moves only on the passive failures each test provokes. The
    // full health model (probes, rejoin, replication) is exercised by
    // tests/test_cluster_failover.cc.
    config.probe_interval_ms = 0;
    for (int i : backend_indices) {
      config.backends.push_back(ShardNode(i));
    }
    router_ = std::make_unique<PlanRouter>(config);
    ASSERT_TRUE(router_->Start().ok());
    ASSERT_GT(router_->port(), 0);
  }

  HashRing::Node ShardNode(int i) const {
    return HashRing::Node{"127.0.0.1", shards_[i]->port()};
  }

  /// The shard index the router's ring assigns `name` to — computed with
  /// an identical local ring (placement is a pure function of the
  /// backend set).
  int OwnerIndex(const std::string& name) const {
    HashRing ring;
    for (int i = 0; i < kShards; ++i) ring.Add(ShardNode(i));
    const auto owner = ring.Owner(name);
    for (int i = 0; i < kShards; ++i) {
      if (owner.value() == ShardNode(i)) return i;
    }
    return -1;
  }

  Status ConnectClient(PpcClient* client) {
    return client->Connect("127.0.0.1", router_->port());
  }

  uint64_t ShardCounter(int i, const std::string& name) {
    return frameworks_[i]->metrics().counter(name).value();
  }

  // A shard replies *before* bumping its request counters (the recorded
  // latency deliberately covers the response write), so reading the
  // counter right after the client's reply races the increment by a few
  // microseconds. Poll briefly before asserting exact counts.
  uint64_t AwaitShardCounter(int i, const std::string& name,
                             uint64_t at_least) {
    for (int spin = 0; spin < 2000; ++spin) {
      const uint64_t value = ShardCounter(i, name);
      if (value >= at_least) return value;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ShardCounter(i, name);
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    for (auto& shard : shards_) {
      if (shard != nullptr) shard->Stop();
    }
  }

  std::unique_ptr<PpcFramework> frameworks_[kShards];
  std::unique_ptr<PlanServer> shards_[kShards];
  std::unique_ptr<PlanRouter> router_;
};

TEST_F(RouterTest, PingAndMetricsAreAnsweredLocally) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_TRUE(client.Ping().ok());
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_TRUE(JsonValidator::Valid(metrics.value())) << metrics.value();
  EXPECT_NE(metrics.value().find("\"router\""), std::string::npos);
  EXPECT_NE(metrics.value().find("\"shards\""), std::string::npos);
  // Both shard payloads are spliced in, keyed by address, with the
  // health fields wrapped around each.
  for (int i = 0; i < kShards; ++i) {
    EXPECT_NE(metrics.value().find(ShardNode(i).Address()),
              std::string::npos);
  }
  EXPECT_NE(metrics.value().find("\"up\":true"), std::string::npos);
  EXPECT_NE(metrics.value().find("\"breaker_state\":\"closed\""),
            std::string::npos);
}

TEST_F(RouterTest, RoutesEveryRequestForATemplateToOneShard) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // Drive learning for both templates straight through the router.
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                             0.5 + rng.Uniform(-0.02, 0.02)};
    ASSERT_TRUE(client.Execute("Q1", x).ok());
  }
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x = {0.5, 0.5, 0.5};
    ASSERT_TRUE(client.Execute("Q3", x).ok());
  }

  // Every EXECUTE for a template landed on its owning shard, none on the
  // other — the property that keeps per-template learning coherent.
  const int q1_owner = OwnerIndex("Q1");
  const int q3_owner = OwnerIndex("Q3");
  ASSERT_GE(q1_owner, 0);
  ASSERT_GE(q3_owner, 0);
  uint64_t expected[kShards] = {};
  expected[q1_owner] += 300;
  expected[q3_owner] += 50;
  for (int i = 0; i < kShards; ++i) {
    EXPECT_EQ(AwaitShardCounter(i, "server.requests.execute", expected[i]),
              expected[i])
        << "shard " << i;
  }

  // The warmed template predicts through the router exactly as it would
  // shard-direct.
  auto predicted = client.Predict("Q1", {0.5, 0.5});
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_NE(predicted.value().plan, kNullPlanId);
  EXPECT_GE(predicted.value().confidence, 0.8);

  // Batches route like scalars.
  auto batch = client.PredictBatch("Q1", {0.5, 0.5, 0.51, 0.49}, 2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().size(), 2u);
}

TEST_F(RouterTest, SnapshotMessagesAreRefusedAtTheRouter) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_EQ(client.FetchSnapshot().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.ApplySnapshot("ignored").status().code(),
            StatusCode::kInvalidArgument);
  // The refusal is an answer, not a connection drop.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(RouterTest, UnknownTemplateErrorsRelayVerbatim) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto missing = client.Predict("Q999", {0.5, 0.5});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound)
      << missing.status().ToString();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(RouterTest, ShardLossFailsOverToReplicaAndTopologyRemoveRehomes) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // Shard ports are ephemeral, so ring placement differs run to run;
  // find a template homed on each shard (with 9 templates and 64 vnodes
  // per node an empty shard is a sub-percent accident — skip then).
  std::string lost_template, surviving_template;
  const int victim = OwnerIndex(kTemplates[0].name);
  for (const TemplateSpec& spec : kTemplates) {
    (OwnerIndex(spec.name) == victim ? lost_template : surviving_template) =
        spec.name;
  }
  if (lost_template.empty() || surviving_template.empty()) {
    GTEST_SKIP() << "ring placement put every template on one shard";
  }

  shards_[victim]->Stop();

  // The victim's templates keep answering: with two shards on the ring,
  // the survivor is every template's replica, so the router fails the
  // PREDICT over to it (cold for this template, so it may abstain — but
  // it answers instead of surfacing the dead shard as INTERNAL).
  auto lost = client.Predict(lost_template, PointFor(lost_template));
  EXPECT_TRUE(lost.ok()) << lost.status().ToString();
  // An EXECUTE fails over too, and carries the FAILED_OVER flag so the
  // client knows its corrective feedback landed off the home shard.
  auto failed_over = client.Execute(lost_template, PointFor(lost_template));
  ASSERT_TRUE(failed_over.ok()) << failed_over.status().ToString();
  EXPECT_TRUE(failed_over.value().failed_over);
  // The surviving shard's own templates serve primary-side, unflagged,
  // through the same router connection.
  auto direct =
      client.Execute(surviving_template, PointFor(surviving_template));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_FALSE(direct.value().failed_over);
  EXPECT_TRUE(client.Ping().ok());

  // Draining the dead shard from the ring re-homes its templates onto
  // the survivor.
  auto removed = client.Topology(wire::TopologyOp::kRemove, "127.0.0.1",
                                 shards_[victim]->port());
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), 1u);
  EXPECT_EQ(router_->backend_count(), 1u);
  auto rehomed = client.Predict(lost_template, PointFor(lost_template));
  EXPECT_TRUE(rehomed.ok()) << rehomed.status().ToString();

  // Removing an address that is not on the ring is NotFound.
  EXPECT_EQ(client
                .Topology(wire::TopologyOp::kRemove, "127.0.0.1",
                          shards_[victim]->port())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(RouterTest, TopologyAddBringsAJoiningShardIntoRotation) {
  StartRouter({0});  // start with one backend
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_EQ(router_->backend_count(), 1u);

  // Everything routes to shard 0 while it is alone on the ring.
  ASSERT_TRUE(client.Execute("Q1", {0.5, 0.5}).ok());
  ASSERT_TRUE(client.Execute("Q3", {0.5, 0.5, 0.5}).ok());
  EXPECT_EQ(AwaitShardCounter(0, "server.requests.execute", 2u), 2u);

  auto added = client.Topology(wire::TopologyOp::kAdd, "127.0.0.1",
                               shards_[1]->port());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value(), 2u);

  // With both shards on the ring, traffic follows the two-node placement.
  ASSERT_TRUE(client.Execute("Q1", {0.5, 0.5}).ok());
  ASSERT_TRUE(client.Execute("Q3", {0.5, 0.5, 0.5}).ok());
  const int q1_owner = OwnerIndex("Q1");
  const int q3_owner = OwnerIndex("Q3");
  const uint64_t expected_joined =
      (q1_owner == 1 ? 1u : 0u) + (q3_owner == 1 ? 1u : 0u);
  EXPECT_EQ(
      AwaitShardCounter(1, "server.requests.execute", expected_joined),
      expected_joined);
}

TEST_F(RouterTest, ConcurrentClientsRouteWithoutInterference) {
  StartRouter();
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 60;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PpcClient client;
      if (!ConnectClient(&client).ok()) {
        ++failures;
        return;
      }
      Rng rng(100 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const bool use_q1 = (i + t) % 2 == 0;
        std::vector<double> x =
            use_q1 ? std::vector<double>{rng.Uniform(), rng.Uniform()}
                   : std::vector<double>{rng.Uniform(), rng.Uniform(),
                                         rng.Uniform()};
        if (!client.Execute(use_q1 ? "Q1" : "Q3", x).ok()) ++failures;
        if (i % 10 == 0 && !client.Ping().ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Conservation: every execute landed on exactly one shard. Wait on
  // either counter to flush the in-flight increments, then sum.
  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads * kQueriesPerThread);
  uint64_t sum = 0;
  for (int spin = 0; spin < 2000 && sum < kTotal; ++spin) {
    sum = ShardCounter(0, "server.requests.execute") +
          ShardCounter(1, "server.requests.execute");
    if (sum < kTotal) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(sum, kTotal);
}

/// Threads in this process (entries of /proc/self/task).
size_t ProcessThreadCount() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

/// This process's virtual size in kB (the VmSize line of
/// /proc/self/status).
uint64_t ProcessVmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      uint64_t kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

TEST_F(RouterTest, ConnectionChurnLeavesNoThreadsOrStacksBehind) {
  // A connection thread left unjoined until Wait() keeps its 8 MB stack
  // mapped after its kernel task exits, so the thread count alone cannot
  // see the leak; VmSize can. Sequential open / PING / close churn must
  // leave both where they started, up to a small constant (glibc keeps a
  // few freed stacks cached).
  constexpr int kConnections = 300;
  constexpr size_t kThreadSlack = 2;
  constexpr uint64_t kVmSlackKb = 128 * 1024;
  StartRouter();
  auto ping_once = [&] {
    PpcClient client;
    ASSERT_TRUE(ConnectClient(&client).ok());
    ASSERT_TRUE(client.Ping().ok());
  };
  ping_once();  // warm-up: first-connection allocations are not a leak
  const auto settled = [&](size_t threads, uint64_t vm_kb) {
    for (int spin = 0; spin < 500; ++spin) {
      if (ProcessThreadCount() <= threads + kThreadSlack &&
          ProcessVmSizeKb() <= vm_kb + kVmSlackKb) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  // Let the accept loop (10 ms ticks) reap the warm-up connection first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const size_t threads_before = ProcessThreadCount();
  const uint64_t vm_before = ProcessVmSizeKb();
  for (int i = 0; i < kConnections; ++i) ping_once();
  EXPECT_TRUE(settled(threads_before, vm_before))
      << "threads " << threads_before << " -> " << ProcessThreadCount()
      << ", VmSize " << vm_before << " kB -> " << ProcessVmSizeKb() << " kB";
  EXPECT_EQ(router_->metrics().counter("router.connections.accepted").value(),
            static_cast<uint64_t>(kConnections + 1));
  EXPECT_EQ(router_->metrics().counter("router.connections.rejected").value(),
            0u);
}

TEST_F(RouterTest, ConnectionsPastTheCapAreRefused) {
  StartRouter();
  std::vector<std::unique_ptr<PpcClient>> held;
  for (size_t i = 0; i < PlanRouter::kMaxConnections; ++i) {
    held.push_back(std::make_unique<PpcClient>());
    ASSERT_TRUE(ConnectClient(held.back().get()).ok());
    ASSERT_TRUE(held.back()->Ping().ok()) << "connection " << i;
  }
  // One past the cap: the router accepts and closes at once.
  PpcClient::Options options;
  options.call_deadline_ms = 5000;
  PpcClient refused(options);
  ASSERT_TRUE(ConnectClient(&refused).ok());
  EXPECT_FALSE(refused.Ping().ok());
  EXPECT_EQ(router_->metrics().counter("router.connections.rejected").value(),
            1u);
  // Closing a held connection frees its slot for a newcomer.
  held.pop_back();
  bool admitted = false;
  for (int attempt = 0; attempt < 200 && !admitted; ++attempt) {
    PpcClient late(options);
    admitted = ConnectClient(&late).ok() && late.Ping().ok();
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(admitted);
}

TEST_F(RouterTest, ShutdownOverTheWireDrainsTheRouter) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_TRUE(client.Shutdown().ok());
  router_->Wait();
  EXPECT_FALSE(router_->running());
  // The shards are untouched — the router drains, the fleet stays up.
  PpcClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", shards_[0]->port()).ok());
  EXPECT_TRUE(direct.Ping().ok());
}

}  // namespace
}  // namespace ppc
