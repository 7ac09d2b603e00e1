#include "sim/faults.hpp"

#include <cassert>

namespace sdt::sim {

FaultInjector::FaultInjector(Simulator& sim, Network& net, std::uint64_t seed)
    : sim_(&sim), net_(&net) {
  net_->seedFaultRng(seed);
}

void FaultInjector::arm() {
  for (; armed_ < schedule_.size(); ++armed_) {
    const FaultSpec spec = schedule_[armed_];
    // Cable cuts flip both ends of a link, which may live on different
    // shards; arming any fault pins the engine to the serial merge loop so
    // no worker thread races the mutation.
    sim_->requireSerial();
    // Fire on the shard that owns the faulted switch so the port mutation is
    // shard-local.
    sim_->scheduleAtOn(net_->switchShard(spec.sw), spec.at, [this, spec]() { apply(spec); });
  }
}

void FaultInjector::apply(const FaultSpec& spec) {
  AppliedFault record;
  record.at = sim_->now();
  record.kind = spec.kind;
  record.sw = spec.sw;
  record.port = spec.port;
  switch (spec.kind) {
    case FaultKind::kPortDown:
      net_->setPortUp(spec.sw, spec.port, false);
      break;
    case FaultKind::kPortUp:
      net_->setPortUp(spec.sw, spec.port, true);
      break;
    case FaultKind::kCableCut:
    case FaultKind::kCableRestore: {
      const bool up = spec.kind == FaultKind::kCableRestore;
      net_->setPortUp(spec.sw, spec.port, up);
      // A cable has two ends: the peer port dies (or recovers) with it.
      if (const auto peer = net_->switchPeerOf(spec.sw, spec.port)) {
        net_->setPortUp(peer->first, peer->second, up);
        record.peerSw = peer->first;
        record.peerPort = peer->second;
      }
      break;
    }
    case FaultKind::kSwitchReboot:
      assert(spec.sw >= 0 && spec.sw < static_cast<int>(ofSwitches_.size()) &&
             "attachSwitches() before rebooting a switch");
      ofSwitches_[spec.sw]->reboot();
      break;
    case FaultKind::kPortStall:
      net_->setPortStalled(spec.sw, spec.port, true);
      break;
    case FaultKind::kPortUnstall:
      net_->setPortStalled(spec.sw, spec.port, false);
      break;
    case FaultKind::kImpair:
      net_->setPortImpairment(spec.sw, spec.port, spec.dropProb, spec.corruptProb);
      break;
  }
  trace_.push_back(record);
}

}  // namespace sdt::sim
