#include "openflow/of_switch.hpp"

#include <cassert>

namespace sdt::openflow {

ForwardDecision Switch::process(const PacketHeader& header, std::int64_t bytes) {
  assert(header.inPort >= 0 && header.inPort < numPorts_);
  // Ingress epoch stamping: a packet entering the network unstamped is
  // pinned to this switch's current configuration epoch; stamped packets
  // keep their stamp, so mid-path hops look up the epoch the packet
  // started under (per-packet consistency, Reitblatt-style).
  PacketHeader stamped = header;
  if (stamped.epoch == 0) stamped.epoch = portIngressEpoch(header.inPort);

  ForwardDecision decision;
  decision.stampEpoch = stamped.epoch;
  const FlowEntry* entry = table_.lookupAndCount(stamped, bytes);
  if (entry == nullptr) return decision;  // table miss -> drop

  decision.matched = true;
  decision.ruleEpoch = cookieEpoch(entry->cookie);
  decision.vc = entry->setVc;
  assert(entry->outPort < numPorts_);
  decision.outPort = entry->outPort;
  return decision;
}

}  // namespace sdt::openflow
