// OpenFlow-style flow table: priority-ordered match/action entries.
//
// This models the subset of OpenFlow 1.3 that SDT relies on (paper §III-B,
// §V, §VII-B): matching on ingress port and the IP 5-tuple, and the one rule
// shape SDT compiles — match → [set VC] output, where a rule without an
// output drops — plus table-capacity accounting (§VII-C: flow table entries
// are the scarce resource on commodity switches).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"

namespace sdt::openflow {

/// Rule epochs (consistent updates, Reitblatt-style): the controller stamps
/// every entry's cookie with the configuration epoch it belongs to, so a
/// two-phase reconfiguration can hold epoch-N and epoch-N+1 rule sets side
/// by side, bulk-delete one, and attribute every forwarding decision to
/// exactly one configuration. Epoch 0 is the wildcard: a rule (or header)
/// with epoch 0 matches any epoch — which is also what every pre-epoch
/// cookie value decodes to, so legacy tables behave exactly as before.
inline constexpr std::uint64_t makeCookie(std::uint32_t epoch, std::uint32_t tag) {
  return static_cast<std::uint64_t>(epoch) << 32 | tag;
}
inline constexpr std::uint32_t cookieEpoch(std::uint64_t cookie) {
  return static_cast<std::uint32_t>(cookie >> 32);
}
inline constexpr std::uint32_t cookieTag(std::uint64_t cookie) {
  return static_cast<std::uint32_t>(cookie);
}

/// Tenant namespacing (multi-tenant slicing): the 32-bit epoch splits into a
/// 16-bit tenant id (high half) and a 16-bit tenant-local epoch (low half),
/// so a cookie reads tenant<<48 | epoch<<32 | tag. Tenant 0 is the legacy
/// whole-plant namespace: every pre-tenancy epoch value decodes to tenant 0,
/// and all epoch machinery (lookup gating, removeByEpoch, purity audits)
/// works on scoped epochs unchanged — two tenants' epochs can never collide
/// because the tenant bits differ.
inline constexpr std::uint32_t makeScopedEpoch(std::uint16_t tenant,
                                               std::uint16_t localEpoch) {
  return static_cast<std::uint32_t>(tenant) << 16 | localEpoch;
}
inline constexpr std::uint16_t epochTenant(std::uint32_t epoch) {
  return static_cast<std::uint16_t>(epoch >> 16);
}
inline constexpr std::uint16_t epochLocal(std::uint32_t epoch) {
  return static_cast<std::uint16_t>(epoch);
}
inline constexpr std::uint16_t cookieTenant(std::uint64_t cookie) {
  return epochTenant(cookieEpoch(cookie));
}

/// Header fields a switch matches on. Addresses are opaque 32-bit ids
/// (the testbed assigns one "IP" per host); `inPort` is the physical
/// ingress port on the switch doing the lookup.
struct PacketHeader {
  int inPort = -1;
  std::uint32_t srcAddr = 0;
  std::uint32_t dstAddr = 0;
  std::uint16_t srcPort = 0;
  std::uint16_t dstPort = 0;
  std::uint8_t protocol = 0;
  std::uint8_t trafficClass = 0;  ///< DSCP-like priority class (0-7)
  /// Configuration epoch the packet was stamped with at ingress (0 =
  /// unstamped: matches rules of any epoch, the pre-epoch behaviour).
  std::uint32_t epoch = 0;
};

/// Exact-or-wildcard match on each field (nullopt = wildcard).
struct Match {
  std::optional<int> inPort;
  std::optional<std::uint32_t> srcAddr;
  std::optional<std::uint32_t> dstAddr;
  std::optional<std::uint16_t> srcPort;
  std::optional<std::uint16_t> dstPort;
  std::optional<std::uint8_t> protocol;
  std::optional<std::uint8_t> trafficClass;

  [[nodiscard]] bool matches(const PacketHeader& h) const {
    return (!inPort || *inPort == h.inPort) && (!srcAddr || *srcAddr == h.srcAddr) &&
           (!dstAddr || *dstAddr == h.dstAddr) && (!srcPort || *srcPort == h.srcPort) &&
           (!dstPort || *dstPort == h.dstPort) && (!protocol || *protocol == h.protocol) &&
           (!trafficClass || *trafficClass == h.trafficClass);
  }

  /// Number of concrete fields (diagnostics; more-specific-first audits).
  [[nodiscard]] int specificity() const;

  [[nodiscard]] std::string describe() const;

  bool operator==(const Match&) const = default;
};

/// One rule: match → [set VC] output. A fixed-size value: copying a table,
/// a snapshot or a diff allocates once, not once per rule.
struct FlowEntry {
  int priority = 0;  ///< higher wins
  Match match;
  int setVc = -1;    ///< rewrite the packet's VC (egress class, §VI-E) when >= 0
  int outPort = -1;  ///< forward out of this port; < 0 drops
  std::uint64_t cookie = 0;  ///< controller-assigned id for bulk delete

  // Per-entry counters (OpenFlow flow stats), bumped only by the non-const
  // lookupAndCount() path so const lookups stay pure (and therefore safe
  // for concurrent readers).
  std::uint64_t packetCount = 0;
  std::uint64_t byteCount = 0;
};
static_assert(std::is_trivially_copyable_v<FlowEntry>);

/// Rule identity: same priority/match/setVc/outPort/cookie, counters ignored.
/// Strict deletes (removeExact) match on it; the controller's incremental
/// table diff uses it without the cookie's epoch half.
[[nodiscard]] bool sameRule(const FlowEntry& a, const FlowEntry& b);

/// Priority-ordered table with a hard capacity (mirrors TCAM limits).
///
/// Lookup is accelerated by an exact-match hash index keyed on
/// (inPort, dstAddr) — the shape of every LinkProjector-generated entry — so
/// SDT-mode forwarding is O(1) in the table size. Entries that wildcard
/// either keyed field fall back to the priority-ordered linear scan; the two
/// paths are merged by table position so results are identical to a pure
/// scan (test_flow_table runs a randomized differential check).
///
/// The index is rebuilt lazily after mutations. Mutations and lookups must
/// not race; call buildIndex() after the last mutation before sharing the
/// table across concurrent readers.
class FlowTable {
 public:
  explicit FlowTable(std::size_t capacity = 4096) : capacity_(capacity) {}

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }

  /// Insert after every entry of equal or higher priority; fails when the
  /// table is full (the controller's capacity checker must prevent this,
  /// §VII-C). Finding the slot is a binary search, O(log n). An insert at
  /// the lowest priority present (or below it) is an amortized O(1) append;
  /// a higher-priority insert still shifts every entry behind its slot.
  Status<Error> add(FlowEntry entry);

  /// Remove all entries with the given cookie; returns how many.
  std::size_t removeByCookie(std::uint64_t cookie);

  /// Bulk delete by configuration epoch (an OpenFlow delete with
  /// cookie/cookie-mask selecting the epoch bits); returns how many.
  /// The transactional controller uses this to garbage-collect a committed
  /// transaction's old rules and to roll back an aborted one's new rules
  /// with a single flow-mod per switch.
  std::size_t removeByEpoch(std::uint32_t epoch);

  /// Number of entries whose cookie carries `epoch` (purity audits).
  [[nodiscard]] std::size_t countEpoch(std::uint32_t epoch) const;

  /// Bulk delete every entry owned by `tenant` regardless of local epoch
  /// (slice eviction GC: one cookie-masked delete per switch selecting the
  /// tenant bits); returns how many. Tenant 0 selects legacy entries only.
  std::size_t removeByTenant(std::uint16_t tenant);

  /// Number of entries owned by `tenant` across all of its local epochs.
  [[nodiscard]] std::size_t countTenant(std::uint16_t tenant) const;

  /// Rewrite the epoch half of every entry's cookie to `epoch` (a single
  /// cookie-rewrite flow-mod per switch, modeling an OFPFC_MODIFY sweep).
  /// Crash recovery uses this to adopt rules that survived a controller
  /// crash under a stale epoch stamp instead of paying a delete+add per
  /// rule. `tenantOnly` confines the sweep to tenant epochTenant(epoch)'s
  /// entries, leaving co-tenants' stamps untouched. Returns how many entries
  /// changed. Match fields are untouched, so the lookup index stays valid.
  std::size_t restampEpoch(std::uint32_t epoch, bool tenantOnly);

  /// Remove the first entry identical to `entry` under sameRule() (an
  /// OpenFlow strict-delete flow-mod); returns whether one was found.
  bool removeExact(const FlowEntry& entry);

  void clear();

  /// Highest-priority matching entry; ties broken by insertion order
  /// (first inserted wins, like OpenFlow's unspecified-but-stable practice).
  /// Pure: never touches flow counters.
  [[nodiscard]] const FlowEntry* lookup(const PacketHeader& header) const;

  /// lookup() plus OpenFlow flow-stats accounting on the matched entry.
  const FlowEntry* lookupAndCount(const PacketHeader& header, std::int64_t bytes);

  /// Force an eager index rebuild (otherwise done lazily on next lookup).
  void buildIndex() const;

  [[nodiscard]] const std::vector<FlowEntry>& entries() const { return entries_; }

  // Cumulative mutation totals (flow-mod accounting for the obs layer).
  // Unlike the entries themselves these survive clear()/reboot: they count
  // operations applied over the table's lifetime, not current state.
  [[nodiscard]] std::uint64_t addsTotal() const { return addsTotal_; }
  [[nodiscard]] std::uint64_t removesTotal() const { return removesTotal_; }
  [[nodiscard]] std::uint64_t restampsTotal() const { return restampsTotal_; }

 private:
  static constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

  [[nodiscard]] static std::uint64_t indexKey(int inPort, std::uint32_t dstAddr) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(inPort)) << 32 | dstAddr;
  }
  /// Table position of the winning entry, kNoPos on miss.
  [[nodiscard]] std::uint32_t findPos(const PacketHeader& header) const;

  std::size_t capacity_;
  std::vector<FlowEntry> entries_;  // kept sorted by descending priority
  std::uint64_t addsTotal_ = 0;
  std::uint64_t removesTotal_ = 0;
  std::uint64_t restampsTotal_ = 0;

  // Lazily maintained lookup index: positions (ascending == match-preference
  // order) of entries with concrete (inPort, dstAddr), bucketed by that key;
  // everything else lands in residual_ and is scanned.
  mutable std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
  mutable std::vector<std::uint32_t> residual_;
  mutable bool indexDirty_ = true;
};

}  // namespace sdt::openflow
