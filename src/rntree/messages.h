#pragma once
// RN-Tree protocol messages: bottom-up aggregation updates (acknowledged by
// the parent) and the token-DFS extended search.

#include <cstdint>
#include <vector>

#include "chord/peer.h"
#include "net/message.h"
#include "rntree/aggregate.h"

namespace pgrid::rntree {

using chord::Peer;
using chord::kNoPeer;

enum MsgType : std::uint16_t {
  kAggUpdate = net::kTagRnTreeBase + 0,
  kTokenPass = net::kTagRnTreeBase + 1,
  kTokenAck = net::kTagRnTreeBase + 2,
  kSearchResult = net::kTagRnTreeBase + 3,
  kAggAck = net::kTagRnTreeBase + 4,
};

/// Child -> parent, periodic RPC: "here is my subtree's summary". `key` is
/// the parent key the sender resolved its cached parent for.
struct AggUpdate final : net::Message {
  static constexpr std::uint16_t kType = kAggUpdate;

  AggUpdate(Peer s, Guid k, Aggregate a)
      : Message(kType), sender(s), key(k), aggregate(a) {}

  Peer sender;
  Guid key;
  Aggregate aggregate;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12 + 8 + kMaxResources * 8 + 12;
  }
  PGRID_MESSAGE_CLONE(AggUpdate)
};

/// Parent -> child, reply to AggUpdate: whether the receiver owns the key
/// (is its Chord successor by its own predecessor). `owner == false` tells
/// the child its cached parent is stale.
struct AggAck final : net::Message {
  static constexpr std::uint16_t kType = kAggAck;

  explicit AggAck(bool o) : Message(kType), owner(o) {}

  bool owner;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 1;
  }
  PGRID_MESSAGE_CLONE(AggAck)
};

/// A matchmaking candidate discovered by the search.
struct Candidate {
  Peer peer;
  double load = 0.0;

  friend bool operator==(const Candidate&, const Candidate&) noexcept = default;
};

/// The traveling DFS token. Passed holder-to-holder as an RPC (ack'd) so a
/// dead next hop is detected by the current holder, which then reroutes.
struct TokenPass final : net::Message {
  static constexpr std::uint16_t kType = kTokenPass;

  TokenPass() : Message(kType) {}

  std::uint64_t search_id = 0;
  Peer initiator;
  Query query;
  std::uint32_t k = 1;           // stop after this many candidates
  std::uint32_t max_visits = 64; // hard cap on nodes visited
  std::uint32_t hops = 0;        // token forwards so far
  std::vector<Guid> visited;     // nodes already processed
  std::vector<Candidate> candidates;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12 + kMaxResources * 9 + 16 + visited.size() * 8 +
           candidates.size() * 20;
  }
  PGRID_MESSAGE_CLONE(TokenPass)
};

struct TokenAck final : net::Message {
  static constexpr std::uint16_t kType = kTokenAck;
  TokenAck() : Message(kType) {}
  PGRID_MESSAGE_CLONE(TokenAck)
};

/// Final answer, sent directly to the initiator.
struct SearchResult final : net::Message {
  static constexpr std::uint16_t kType = kSearchResult;

  SearchResult() : Message(kType) {}

  std::uint64_t search_id = 0;
  std::uint32_t hops = 0;
  std::vector<Candidate> candidates;

  [[nodiscard]] std::size_t payload_size() const noexcept override {
    return 12 + candidates.size() * 20;
  }
  PGRID_MESSAGE_CLONE(SearchResult)
};

}  // namespace pgrid::rntree
