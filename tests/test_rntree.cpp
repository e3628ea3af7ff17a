// RN-Tree: trie-region construction (levels, parents, single root), O(log N)
// height, aggregation correctness vs an oracle, the extended DFS search, the
// cached parent (validated by AggAck, re-resolved on refusal or timeout), and
// a Chord-traffic guard on a steady grid cell.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "chord/messages.h"
#include "chord/ring.h"
#include "grid/grid_system.h"
#include "net/network.h"
#include "net/rpc.h"
#include "rntree/rn_tree.h"
#include "sim/simulator.h"

namespace pgrid::rntree {
namespace {

/// Network host stacking an RnTreeService on a ChordNode.
class RnHost final : public net::MessageHandler {
 public:
  RnHost(net::Network& network, Guid id, chord::ChordConfig chord_config,
         RnTreeConfig tree_config, Rng rng)
      : addr_(network.add_handler(this)),
        chord_(network, addr_, id, chord_config, rng.fork(1)),
        tree_(network, chord_, tree_config,
              [this] { return RnTreeService::LocalInfo{caps, load}; },
              rng.fork(2)) {}

  void on_message(net::NodeAddr from, net::MessagePtr msg) override {
    if (chord_.handle(from, msg)) return;
    tree_.handle(from, msg);
  }

  [[nodiscard]] chord::ChordNode& chord() noexcept { return chord_; }
  [[nodiscard]] RnTreeService& tree() noexcept { return tree_; }
  [[nodiscard]] net::NodeAddr addr() const noexcept { return addr_; }

  Caps caps{};
  double load = 0.0;

 private:
  net::NodeAddr addr_;
  chord::ChordNode chord_;
  RnTreeService tree_;
};

struct Fixture {
  explicit Fixture(std::uint64_t seed = 1)
      : net(simulator, Rng{seed},
            net::LatencyModel{sim::SimTime::millis(20),
                              sim::SimTime::millis(80)}),
        ring(net, chord::ChordConfig{}, Rng{seed + 1}),
        rng(seed + 2) {}

  sim::Simulator simulator;
  net::Network net;
  chord::ChordRing ring;  // only for oracle_successor; hosts are RnHosts
  Rng rng;
  std::vector<std::unique_ptr<RnHost>> hosts;

  void build(std::size_t n, double settle_sec = 30.0) {
    chord::ChordConfig chord_config;
    for (std::size_t i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<RnHost>(
          net, Guid::of(std::uint64_t{0xABCD} + i * 7919), chord_config,
          RnTreeConfig{}, rng.fork(i)));
      // Default capabilities: spread over [1, 4].
      hosts.back()->caps = Caps{1.0 + static_cast<double>(i % 4), 1.0, 1.0, 0.0};
    }
    wire_chord_instantly();
    for (auto& h : hosts) h->tree().start();
    settle(settle_sec);  // several aggregation periods
  }

  /// Install exact Chord state into the RnHosts (mirrors ChordRing logic).
  void wire_chord_instantly() {
    std::vector<std::size_t> order(hosts.size());
    for (std::size_t i = 0; i < hosts.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return hosts[a]->chord().id() < hosts[b]->chord().id();
    });
    const std::size_t n = order.size();
    auto peer_at = [&](std::size_t pos) {
      auto& c = hosts[order[pos % n]]->chord();
      return chord::Peer{c.addr(), c.id()};
    };
    for (std::size_t pos = 0; pos < n; ++pos) {
      auto& node = hosts[order[pos]]->chord();
      std::vector<chord::Peer> succs;
      const std::size_t len =
          std::min(node.config().successor_list_len, n > 1 ? n - 1 : 1);
      for (std::size_t k = 1; k <= len; ++k) succs.push_back(peer_at(pos + k));
      std::array<chord::Peer, chord::ChordNode::kBits> fingers{};
      for (int i = 0; i < chord::ChordNode::kBits; ++i) {
        fingers[static_cast<std::size_t>(i)] =
            oracle(Guid{node.id().value() + (std::uint64_t{1} << i)});
      }
      node.install_state(peer_at(pos + n - 1), std::move(succs), fingers);
    }
  }

  /// Not crashed (wiring runs before any Chord node is started).
  bool live(const RnHost& h) const { return net.alive(h.addr()); }

  /// successor(key) among the live hosts.
  chord::Peer oracle(Guid key) const {
    chord::Peer best = chord::kNoPeer;
    std::uint64_t best_dist = 0;
    for (const auto& h : hosts) {
      if (!live(*h)) continue;
      const std::uint64_t dist = key.clockwise_to(h->chord().id());
      if (!best.valid() || dist < best_dist) {
        best = h->chord().self_peer();
        best_dist = dist;
      }
    }
    return best;
  }

  void crash(RnHost& h) {
    net.set_alive(h.addr(), false);
    h.tree().stop();
    h.chord().crash();
  }

  /// Sum of one RnTreeStats counter over the live hosts.
  std::uint64_t total(std::uint64_t RnTreeStats::*counter) const {
    std::uint64_t sum = 0;
    for (const auto& h : hosts) {
      if (live(*h)) sum += h->tree().stats().*counter;
    }
    return sum;
  }

  void settle(double seconds) {
    simulator.run_until(simulator.now() + sim::SimTime::seconds(seconds));
  }

  /// Root count and reachability of all nodes by following parents.
  std::size_t root_count() const {
    std::size_t roots = 0;
    for (const auto& h : hosts) roots += h->tree().is_root() ? 1 : 0;
    return roots;
  }

  RnHost* host_by_addr(net::NodeAddr a) {
    for (auto& h : hosts) {
      if (h->addr() == a) return h.get();
    }
    return nullptr;
  }

  /// Every live non-root's cached parent is the oracle successor of its
  /// parent key, and following parents from any live host reaches the one
  /// live root without a cycle.
  void expect_converged_tree() {
    std::size_t roots = 0;
    for (auto& h : hosts) {
      if (!live(*h)) continue;
      if (h->tree().is_root()) {
        ++roots;
        continue;
      }
      EXPECT_EQ(h->tree().cached_parent(), oracle(h->tree().parent_key()))
          << "host " << h->addr();
      int depth = 0;
      RnHost* cursor = h.get();
      while (!cursor->tree().is_root()) {
        const chord::Peer p = cursor->tree().cached_parent();
        ASSERT_TRUE(p.valid()) << "host " << cursor->addr();
        cursor = host_by_addr(p.addr);
        ASSERT_NE(cursor, nullptr);
        ASSERT_TRUE(live(*cursor)) << "parent " << p.addr;
        ASSERT_LT(++depth, 64) << "parent cycle from host " << h->addr();
      }
    }
    EXPECT_EQ(roots, 1u);
  }

  struct SearchOutcome {
    std::vector<Candidate> candidates;
    int hops = -1;
    bool completed = false;
  };
  SearchOutcome search_from(std::size_t host, const Query& q,
                            std::uint32_t k) {
    SearchOutcome out;
    hosts[host]->tree().search(q, k, [&](std::vector<Candidate> c, int hops) {
      out.candidates = std::move(c);
      out.hops = hops;
      out.completed = true;
    });
    settle(60);
    return out;
  }
};

TEST(RnTreeStructure, ExactlyOneRoot) {
  Fixture fx;
  fx.build(64);
  EXPECT_EQ(fx.root_count(), 1u);
}

TEST(RnTreeStructure, SingletonIsItsOwnRoot) {
  Fixture fx{2};
  fx.build(1);
  EXPECT_TRUE(fx.hosts[0]->tree().is_root());
  EXPECT_EQ(fx.hosts[0]->tree().child_count(), 0u);
}

TEST(RnTreeStructure, ParentChainsReachRootWithLogHeight) {
  Fixture fx{3};
  fx.build(128);
  // Follow cached parents from every node; all chains must reach the root.
  int max_depth = 0;
  for (auto& h : fx.hosts) {
    int depth = 0;
    RnHost* cursor = h.get();
    std::set<net::NodeAddr> seen;
    while (!cursor->tree().is_root()) {
      ASSERT_TRUE(seen.insert(cursor->addr()).second)
          << "parent cycle at depth " << depth;
      const chord::Peer p = cursor->tree().cached_parent();
      ASSERT_TRUE(p.valid());
      cursor = fx.host_by_addr(p.addr);
      ASSERT_NE(cursor, nullptr);
      ++depth;
      ASSERT_LT(depth, 64);
    }
    max_depth = std::max(max_depth, depth);
  }
  // Expected height O(log N): log2(128) = 7; allow a generous multiple.
  EXPECT_LE(max_depth, 21);
}

TEST(RnTreeStructure, LevelsAreConsistentWithParents) {
  Fixture fx{4};
  fx.build(64);
  for (auto& h : fx.hosts) {
    if (h->tree().is_root()) continue;
    const chord::Peer p = h->tree().cached_parent();
    ASSERT_TRUE(p.valid());
    RnHost* parent = fx.host_by_addr(p.addr);
    ASSERT_NE(parent, nullptr);
    // A parent represents a strictly larger region.
    EXPECT_LT(parent->tree().level(), h->tree().level());
  }
}

TEST(RnTreeAggregation, RootAggregateCoversAllNodes) {
  Fixture fx{5};
  fx.build(48, 60.0);
  RnHost* root = nullptr;
  for (auto& h : fx.hosts) {
    if (h->tree().is_root()) root = h.get();
  }
  ASSERT_NE(root, nullptr);
  const Aggregate agg = root->tree().subtree_aggregate();
  EXPECT_EQ(agg.nodes, 48u);
  // Oracle max capability per resource.
  Caps oracle{};
  for (auto& h : fx.hosts) {
    for (std::size_t r = 0; r < kMaxResources; ++r) {
      oracle[r] = std::max(oracle[r], h->caps[r]);
    }
  }
  for (std::size_t r = 0; r < kMaxResources; ++r) {
    EXPECT_DOUBLE_EQ(agg.max_caps[r], oracle[r]) << "resource " << r;
  }
}

TEST(RnTreeAggregation, MinLoadPropagates) {
  Fixture fx{6};
  fx.build(32, 30.0);
  for (auto& h : fx.hosts) h->load = 10.0;
  fx.hosts[17]->load = 1.5;
  fx.settle(30);
  RnHost* root = nullptr;
  for (auto& h : fx.hosts) {
    if (h->tree().is_root()) root = h.get();
  }
  ASSERT_NE(root, nullptr);
  EXPECT_DOUBLE_EQ(root->tree().subtree_aggregate().min_load, 1.5);
}

TEST(RnTreeSearch, FindsSatisfyingNodeWhenOneExists) {
  Fixture fx{7};
  fx.build(64);
  // Exactly one node has capability 9 in resource 0.
  fx.hosts[23]->caps[0] = 9.0;
  fx.settle(60);  // aggregates must refresh up the whole tree
  Query q;
  q.constrained[0] = true;
  q.min[0] = 8.5;
  const auto res = fx.search_from(0, q, 1);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.candidates.size(), 1u);
  EXPECT_EQ(res.candidates[0].peer.addr, fx.hosts[23]->addr());
  EXPECT_GE(res.hops, 1);
}

TEST(RnTreeSearch, UnconstrainedQueryFindsAnyNodeFast) {
  Fixture fx{8};
  fx.build(64);
  const Query q;  // no constraints: every node qualifies
  const auto res = fx.search_from(5, q, 1);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.candidates.size(), 1u);
  // The initiator itself qualifies: zero hops.
  EXPECT_EQ(res.candidates[0].peer.addr, fx.hosts[5]->addr());
  EXPECT_EQ(res.hops, 0);
}

TEST(RnTreeSearch, ExtendedSearchCollectsKCandidates) {
  Fixture fx{9};
  fx.build(64);
  // Eight nodes have the rare capability.
  for (std::size_t i = 0; i < 8; ++i) fx.hosts[i * 8]->caps[1] = 7.0;
  fx.settle(60);
  Query q;
  q.constrained[1] = true;
  q.min[1] = 6.0;
  const auto res = fx.search_from(3, q, 4);
  ASSERT_TRUE(res.completed);
  EXPECT_GE(res.candidates.size(), 4u);
  for (const auto& c : res.candidates) {
    RnHost* h = fx.host_by_addr(c.peer.addr);
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->caps[1], 6.0);  // every candidate actually satisfies
  }
}

TEST(RnTreeSearch, ImpossibleQueryReturnsEmpty) {
  Fixture fx{10};
  fx.build(32);
  Query q;
  q.constrained[0] = true;
  q.min[0] = 1e9;  // nobody has this
  const auto res = fx.search_from(2, q, 1);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(res.candidates.empty());
}

TEST(RnTreeSearch, CandidatesCarryLoad) {
  Fixture fx{11};
  fx.build(16);
  for (auto& h : fx.hosts) h->load = 3.25;
  const Query q;
  const auto res = fx.search_from(0, q, 1);
  ASSERT_TRUE(res.completed);
  ASSERT_FALSE(res.candidates.empty());
  EXPECT_DOUBLE_EQ(res.candidates[0].load, 3.25);
}

TEST(RnTreeSearch, SearchSurvivesNodeFailures) {
  Fixture fx{12};
  fx.build(48);
  fx.hosts[30]->caps[2] = 5.0;
  fx.settle(60);
  // Crash a handful of nodes (none of them the target or initiator).
  for (std::size_t i : {7u, 19u, 41u}) {
    fx.net.set_alive(fx.hosts[i]->addr(), false);
    fx.hosts[i]->tree().stop();
    fx.hosts[i]->chord().crash();
  }
  Query q;
  q.constrained[2] = true;
  q.min[2] = 4.0;
  const auto res = fx.search_from(0, q, 1);
  ASSERT_TRUE(res.completed);
  // Either found (normal) or empty after the tree routed around the dead
  // nodes; it must not hang. Finding it is expected most of the time.
  if (!res.candidates.empty()) {
    EXPECT_EQ(res.candidates[0].peer.addr, fx.hosts[30]->addr());
  }
}

TEST(RnTreeQuery, ConstraintAlgebra) {
  Query q;
  q.constrained[0] = true;
  q.min[0] = 2.0;
  q.constrained[2] = true;
  q.min[2] = 5.0;
  EXPECT_EQ(q.constraint_count(), 2u);
  EXPECT_TRUE(q.satisfied_by(Caps{2.0, 0.0, 5.0, 0.0}));
  EXPECT_FALSE(q.satisfied_by(Caps{1.9, 9.0, 9.0, 9.0}));
  EXPECT_FALSE(q.satisfied_by(Caps{9.0, 9.0, 4.9, 9.0}));

  Aggregate agg;
  agg.max_caps = Caps{3.0, 0.0, 6.0, 0.0};
  agg.nodes = 5;
  EXPECT_TRUE(q.possibly_satisfied_by(agg));
  agg.nodes = 0;
  EXPECT_FALSE(q.possibly_satisfied_by(agg));
}

TEST(RnTreeAggregateUnit, MergeTakesMaxAndMin) {
  Aggregate a;
  a.max_caps = Caps{1.0, 5.0, 0.0, 0.0};
  a.nodes = 2;
  a.min_load = 3.0;
  Aggregate b;
  b.max_caps = Caps{4.0, 2.0, 0.0, 0.0};
  b.nodes = 3;
  b.min_load = 1.0;
  a.merge(b);
  EXPECT_EQ(a.nodes, 5u);
  EXPECT_DOUBLE_EQ(a.max_caps[0], 4.0);
  EXPECT_DOUBLE_EQ(a.max_caps[1], 5.0);
  EXPECT_DOUBLE_EQ(a.min_load, 1.0);
  // Merging an empty aggregate changes nothing.
  a.merge(Aggregate{});
  EXPECT_EQ(a.nodes, 5u);
}

// --- the cached parent ---------------------------------------------------------

/// A bare endpoint that sends hand-made AggUpdates and keeps the ack.
class Probe final : public net::MessageHandler {
 public:
  explicit Probe(net::Network& network)
      : addr_(network.add_handler(this)), rpc_(network, addr_) {}

  void on_message(net::NodeAddr /*from*/, net::MessagePtr msg) override {
    rpc_.consume_reply(msg);
  }

  /// Push an update for `key` to `to`; `ack` is set once the reply lands.
  void push(net::NodeAddr to, Guid key, std::optional<bool>& ack) {
    rpc_.call(to,
              std::make_unique<AggUpdate>(Peer{addr_, Guid::of(0x9999)}, key,
                                          Aggregate{}),
              sim::SimTime::seconds(2.0), [&ack](net::MessagePtr reply) {
                if (reply != nullptr) {
                  ack = net::msg_cast<AggAck>(reply.get())->owner;
                }
              });
  }

 private:
  net::NodeAddr addr_;
  net::RpcEndpoint rpc_;
};

TEST(RnTreeParentCache, StaticRingStopsLookingUpParents) {
  Fixture fx{21};
  fx.build(64);
  const std::uint64_t lookups = fx.total(&RnTreeStats::parent_lookups);
  EXPECT_GT(lookups, 0u);
  fx.settle(60);  // 30 more aggregation rounds per node
  EXPECT_EQ(fx.total(&RnTreeStats::parent_lookups), lookups);
  EXPECT_EQ(fx.total(&RnTreeStats::parent_rejects), 0u);
  EXPECT_EQ(fx.total(&RnTreeStats::parent_timeouts), 0u);
  fx.expect_converged_tree();
}

TEST(RnTreeParentCache, ChildrenReResolveAfterParentCrash) {
  Fixture fx{22};
  fx.build(64);
  // The non-root with the most children.
  RnHost* victim = nullptr;
  for (auto& h : fx.hosts) {
    if (h->tree().is_root()) continue;
    if (victim == nullptr ||
        h->tree().child_count() > victim->tree().child_count()) {
      victim = h.get();
    }
  }
  ASSERT_NE(victim, nullptr);
  ASSERT_GT(victim->tree().child_count(), 0u);
  std::vector<RnHost*> children;
  for (auto& h : fx.hosts) {
    if (h->tree().cached_parent().addr == victim->addr()) {
      children.push_back(h.get());
    }
  }
  ASSERT_FALSE(children.empty());
  const std::uint64_t lookups = fx.total(&RnTreeStats::parent_lookups);

  fx.crash(*victim);
  fx.settle(60);
  std::uint64_t timeouts = 0;
  for (RnHost* c : children) {
    timeouts += c->tree().stats().parent_timeouts;
    EXPECT_NE(c->tree().cached_parent().addr, victim->addr());
  }
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(fx.total(&RnTreeStats::parent_lookups), lookups);
  fx.expect_converged_tree();
}

TEST(RnTreeParentCache, JoinerTakingOverTheRegionBecomesTheParent) {
  Fixture fx{23};
  fx.build(64);
  // A child whose parent key lies strictly before its parent's id, so a
  // joiner placed exactly at the key becomes the key's new successor
  // without moving the child's own predecessor (and so its parent key).
  RnHost* child = nullptr;
  for (auto& h : fx.hosts) {
    if (h->tree().is_root()) continue;
    if (h->tree().cached_parent().id != h->tree().parent_key()) {
      child = h.get();
      break;
    }
  }
  ASSERT_NE(child, nullptr);
  const Peer old_parent = child->tree().cached_parent();
  const Guid key = child->tree().parent_key();
  ASSERT_EQ(fx.oracle(key), old_parent);

  fx.hosts.push_back(std::make_unique<RnHost>(
      fx.net, key, chord::ChordConfig{}, RnTreeConfig{}, fx.rng.fork(999)));
  RnHost& joiner = *fx.hosts.back();
  bool joined = false;
  joiner.chord().join(fx.hosts.front()->chord().self_peer(),
                      [&joined](bool ok) { joined = ok; });
  joiner.tree().start();
  fx.settle(60);
  ASSERT_TRUE(joined);

  EXPECT_EQ(child->tree().parent_key(), key);
  EXPECT_EQ(child->tree().cached_parent(), joiner.chord().self_peer());
  EXPECT_GT(child->tree().stats().parent_rejects, 0u);
  fx.expect_converged_tree();
}

TEST(RnTreeParentCache, MisdirectedUpdateIsNotRecordedAsChild) {
  Fixture fx{24};
  fx.build(16);
  RnHost& target = *fx.hosts[3];
  const chord::Peer pred = target.chord().predecessor();
  ASSERT_TRUE(pred.valid());
  Probe probe(fx.net);

  // The predecessor's id lies outside (pred, self]: not ours to adopt.
  const std::size_t before = target.tree().child_count();
  std::optional<bool> refused;
  probe.push(target.addr(), pred.id, refused);
  fx.settle(1);
  ASSERT_TRUE(refused.has_value());
  EXPECT_FALSE(*refused);
  EXPECT_EQ(target.tree().child_count(), before);

  // Control: our own id is ours, and the sender is adopted.
  std::optional<bool> accepted;
  probe.push(target.addr(), target.chord().id(), accepted);
  fx.settle(1);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_TRUE(*accepted);
  EXPECT_EQ(target.tree().child_count(), before + 1);
}

// Traffic guard: a fixed-seed 256-node RN-tree steady cell (the paper's
// protocol: light maintenance, load 0.8, exp(100 s) jobs). Resolving the
// parent by a Chord lookup every aggregation round sent 463530 NextHopReq
// here; with the cached parent it is 25093 (job-owner lookups and finger
// fixes). The bound keeps the per-round lookup from coming back unnoticed.
TEST(RnTreeTraffic, SteadyCellChordLookupsStayBounded) {
  constexpr std::size_t kNodes = 256;
  workload::WorkloadSpec spec;
  spec.node_count = kNodes;
  spec.job_count = 1280;
  spec.node_mix = workload::Mix::kMixed;
  spec.job_mix = workload::Mix::kMixed;
  spec.constraint_probability = 0.4;
  spec.mean_runtime_sec = 100.0;
  spec.mean_interarrival_sec = 100.0 / (0.8 * kNodes);
  spec.seed = 41;
  grid::GridConfig config;
  config.kind = grid::MatchmakerKind::kRnTree;
  config.seed = 43;
  config.light_maintenance = true;
  config.client.resubmit_base_sec = 1e9;
  config.horizon_slack_sec = 150000.0;

  grid::GridSystem system(config, workload::generate(spec));
  system.run();
  ASSERT_TRUE(system.finished());
  EXPECT_EQ(system.collector().completed_count(), spec.job_count);
  EXPECT_LT(system.net_stats().sent_of(chord::kNextHopReq), 40000u);
}

// Property: single-root and bounded height across sizes.
class RnTreeSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RnTreeSizeSweep, OneRootBoundedHeight) {
  Fixture fx{GetParam() * 13 + 1};
  fx.build(GetParam());
  EXPECT_EQ(fx.root_count(), 1u);
  for (auto& h : fx.hosts) {
    int depth = 0;
    RnHost* cursor = h.get();
    while (!cursor->tree().is_root() && depth < 64) {
      const chord::Peer p = cursor->tree().cached_parent();
      ASSERT_TRUE(p.valid());
      cursor = fx.host_by_addr(p.addr);
      ASSERT_NE(cursor, nullptr);
      ++depth;
    }
    EXPECT_LT(depth, 40);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RnTreeSizeSweep,
                         ::testing::Values(2, 4, 9, 17, 33, 65, 200));

}  // namespace
}  // namespace pgrid::rntree
