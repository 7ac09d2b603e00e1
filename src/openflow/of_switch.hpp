// Model of a commodity OpenFlow switch: a port count and one flow table
// whose rules keep OpenFlow's per-rule packet counters (the Network Monitor,
// §V-3, polls sim::Network's port counters, not this model).
//
// This class is pure control/data-plane logic with no notion of time; the
// event-driven simulator (sim::) wraps it to add queues, links, and delays.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "openflow/flow_table.hpp"

namespace sdt::openflow {

/// Result of running a header through the pipeline.
struct ForwardDecision {
  bool matched = false;
  int outPort = -1;  ///< < 0 drops (table miss or a rule without output)
  int vc = -1;  ///< virtual channel override (-1 = keep packet's VC)
  /// Epoch the lookup ran under: the header's stamp, or — for an unstamped
  /// header — this switch's ingress epoch, which the data plane writes back
  /// into the packet so the stamp persists across hops (two-phase updates).
  std::uint32_t stampEpoch = 0;
  /// cookieEpoch() of the matched entry (0 = wildcard rule or table miss);
  /// the consistency checker attributes the hop to a configuration with it.
  std::uint32_t ruleEpoch = 0;
};

/// Flow-stats readback: a copy of everything the controller can learn about
/// a switch's forwarding state over the control channel (an OpenFlow
/// flow-stats + ingress-config request). Crash recovery diffs this against
/// the journaled intent instead of trusting its own (lost) bookkeeping.
struct TableSnapshot {
  std::vector<FlowEntry> entries;
  std::uint32_t ingressEpoch = 0;
  /// Sparse per-port ingress-epoch overrides (multi-tenant slicing):
  /// (port, epoch) pairs, ascending by port.
  std::vector<std::pair<int, std::uint32_t>> portEpochs;
};

class Switch {
 public:
  Switch(int id, int numPorts, std::size_t tableCapacity = 4096)
      : id_(id), numPorts_(numPorts), table_(tableCapacity) {}

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int numPorts() const { return numPorts_; }

  [[nodiscard]] FlowTable& table() { return table_; }
  [[nodiscard]] const FlowTable& table() const { return table_; }

  /// Run the match/action pipeline; the matched rule counts the packet. A
  /// table miss or a rule without an output drops (SDT installs no
  /// table-miss flood: isolation depends on it, §VI-B).
  /// Unstamped headers (epoch 0) are stamped with ingressEpoch() before the
  /// lookup, pinning the packet to one configuration for its whole path.
  ForwardDecision process(const PacketHeader& header);

  /// Configuration epoch stamped onto packets entering the network here
  /// (0 = no stamping, the pre-epoch behaviour). Flipping this is the
  /// atomic per-switch commit step of a two-phase update: rules of both
  /// epochs are installed, and the stamp decides which set a packet uses.
  [[nodiscard]] std::uint32_t ingressEpoch() const { return ingressEpoch_; }
  void setIngressEpoch(std::uint32_t epoch) { ingressEpoch_ = epoch; }

  /// Per-port ingress-epoch override (multi-tenant slicing): a switch shared
  /// by several tenants stamps each ingress port with its owning slice's
  /// epoch, so one tenant's epoch flip — a per-port config write — can never
  /// move a neighbor's traffic onto new rules. A port without an override
  /// falls back to the switch-wide ingressEpoch(). Port -1 is rejected.
  void setPortIngressEpoch(int port, std::uint32_t epoch) {
    if (port < 0 || port >= numPorts()) return;
    portEpochs_[port] = epoch;
  }
  void clearPortIngressEpoch(int port) { portEpochs_.erase(port); }
  /// Effective stamping epoch for packets entering at `port`.
  [[nodiscard]] std::uint32_t portIngressEpoch(int port) const {
    const auto it = portEpochs_.find(port);
    return it != portEpochs_.end() ? it->second : ingressEpoch_;
  }
  [[nodiscard]] bool hasPortIngressEpoch(int port) const {
    return portEpochs_.count(port) > 0;
  }

  /// OpenFlow barrier request: all preceding flow-mods are now processed
  /// (trivially true on the model — table edits apply synchronously — but
  /// the *ack* travels back over the unreliable control channel, which is
  /// what the two-phase protocol synchronizes on). Returns the barrier id.
  std::uint64_t barrier() { return ++barriersSeen_; }
  [[nodiscard]] std::uint64_t barriersSeen() const { return barriersSeen_; }

  /// OpenFlow xid dedup: the control channel is at-least-once, so a
  /// flow-mod bundle can be delivered twice (duplicate in flight, or a
  /// retransmit whose original was only slow, not lost). Re-applying a
  /// bundle verbatim is not idempotent — a duplicated strict-delete can
  /// remove a legitimately re-added twin rule — so every mutating bundle
  /// carries a transfer id and the switch refuses re-application. Returns
  /// true the first time an xid is seen (caller should apply), false on a
  /// duplicate (caller should only re-ack).
  bool acceptXid(std::uint64_t xid) {
    const bool fresh = xidsSeen_.insert(xid).second;
    if (!fresh) {
      ++xidDupHits_;
      return false;
    }
    xidOrder_.push_back(xid);
    while (xidOrder_.size() > xidCacheCapacity_) {
      xidsSeen_.erase(xidOrder_.front());
      xidOrder_.pop_front();
    }
    return true;
  }
  [[nodiscard]] bool seenXid(std::uint64_t xid) const {
    return xidsSeen_.count(xid) > 0;
  }
  /// How many duplicate bundles the dedup refused — the visible footprint
  /// of the control channel's at-least-once delivery.
  [[nodiscard]] std::uint64_t xidDupHits() const { return xidDupHits_; }

  /// The dedup cache is bounded (FIFO eviction) so a long-running service
  /// (`sdtctl serve`) cannot leak memory one xid at a time. The window must
  /// comfortably cover the channel's retransmit horizon: a duplicate older
  /// than `capacity` distinct bundles is forgotten and would re-apply.
  [[nodiscard]] std::size_t xidCacheSize() const { return xidOrder_.size(); }
  [[nodiscard]] std::size_t xidCacheCapacity() const { return xidCacheCapacity_; }
  void setXidCacheCapacity(std::size_t capacity) {
    xidCacheCapacity_ = capacity > 0 ? capacity : 1;
    while (xidOrder_.size() > xidCacheCapacity_) {
      xidsSeen_.erase(xidOrder_.front());
      xidOrder_.pop_front();
    }
  }

  /// Controller-term fence (replicated controller HA): every mutating
  /// bundle from a term-aware controller carries the leader's term; the
  /// switch tracks the highest term it has ever admitted and refuses
  /// anything older. A deposed leader that has not yet noticed its lease
  /// expired keeps emitting bundles at the old term — those are the
  /// split-brain writes, and this is the line that stops them. Term 0 is
  /// the legacy single-controller namespace: always admitted, never raises
  /// the fence. Returns true when the bundle may apply.
  ///
  /// `leaderId` breaks ties: two candidates that miss each other's claim
  /// heartbeats can claim the SAME term, and the fence must still pick one
  /// writer — the lower replica id wins, deterministically, on every switch
  /// (mirroring the election's priority order, so switches and replicas
  /// agree on the survivor without coordinating). -1 means "no identity"
  /// (legacy term-only callers): it neither fences ties nor survives them.
  bool admitTerm(std::uint64_t term, int leaderId = -1) {
    if (term == 0) return true;
    if (term < controllerTerm_) {
      ++fencedWrites_;
      return false;
    }
    if (term == controllerTerm_ && leaderId >= 0 && controllerLeaderId_ >= 0 &&
        leaderId > controllerLeaderId_) {
      ++fencedWrites_;
      return false;
    }
    const bool newTerm = term > controllerTerm_;
    controllerTerm_ = term;
    if (newTerm) {
      controllerLeaderId_ = leaderId;
    } else if (leaderId >= 0 &&
               (controllerLeaderId_ < 0 || leaderId < controllerLeaderId_)) {
      controllerLeaderId_ = leaderId;
    }
    return true;
  }
  /// Highest controller term this switch has admitted (0 = never fenced).
  [[nodiscard]] std::uint64_t controllerTerm() const { return controllerTerm_; }
  /// Winning leader id at controllerTerm() (-1 = unknown / term-only caller).
  [[nodiscard]] int controllerLeaderId() const { return controllerLeaderId_; }
  /// How many stale-term bundles the fence rejected — the observable
  /// footprint of a split brain.
  [[nodiscard]] std::uint64_t fencedWrites() const { return fencedWrites_; }

  /// Flow-stats readback over the control channel (crash recovery):
  /// snapshot the table and ingress configuration as of now.
  [[nodiscard]] TableSnapshot snapshot() const {
    TableSnapshot snap{table_.entries(), ingressEpoch_, {}};
    snap.portEpochs.assign(portEpochs_.begin(), portEpochs_.end());
    return snap;
  }

  /// Power-cycle: the flow table and its rule counters, ingress-epoch config,
  /// barrier counter and xid cache are all volatile on a commodity switch.
  /// Ports come back healthy — the cure is reinstalling state, which is
  /// exactly what makes an un-noticed reboot a silent black hole until the
  /// controller reads the (empty) table back.
  void reboot() {
    table_.clear();
    ingressEpoch_ = 0;
    portEpochs_.clear();
    barriersSeen_ = 0;
    xidsSeen_.clear();
    xidOrder_.clear();
    xidDupHits_ = 0;
    controllerTerm_ = 0;
    controllerLeaderId_ = -1;
    fencedWrites_ = 0;
  }

 private:
  int id_;
  int numPorts_;
  FlowTable table_;
  std::uint32_t ingressEpoch_ = 0;
  /// Sparse per-port overrides; ordered so snapshots list ports ascending.
  std::map<int, std::uint32_t> portEpochs_;
  std::uint64_t barriersSeen_ = 0;
  std::uint64_t xidDupHits_ = 0;
  std::unordered_set<std::uint64_t> xidsSeen_;
  /// Insertion order backing FIFO eviction of xidsSeen_.
  std::deque<std::uint64_t> xidOrder_;
  std::size_t xidCacheCapacity_ = 4096;
  std::uint64_t controllerTerm_ = 0;
  int controllerLeaderId_ = -1;
  std::uint64_t fencedWrites_ = 0;
};

}  // namespace sdt::openflow
