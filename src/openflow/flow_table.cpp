#include "openflow/flow_table.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace sdt::openflow {

int Match::specificity() const {
  int n = 0;
  n += inPort.has_value();
  n += srcAddr.has_value();
  n += dstAddr.has_value();
  n += srcPort.has_value();
  n += dstPort.has_value();
  n += protocol.has_value();
  n += trafficClass.has_value();
  return n;
}

std::string Match::describe() const {
  std::string out = "{";
  const auto field = [&](const char* name, auto opt) {
    if (opt) out += strFormat("%s=%lld ", name, static_cast<long long>(*opt));
  };
  field("in", inPort);
  field("src", srcAddr);
  field("dst", dstAddr);
  field("sport", srcPort);
  field("dport", dstPort);
  field("proto", protocol);
  field("tc", trafficClass);
  if (out.back() == ' ') out.pop_back();
  out += "}";
  return out;
}

bool sameRule(const FlowEntry& a, const FlowEntry& b) {
  return a.priority == b.priority && a.cookie == b.cookie && a.match == b.match &&
         a.actions == b.actions;
}

Status<Error> FlowTable::add(FlowEntry entry) {
  if (full()) {
    return makeError(strFormat("flow table full (%zu entries)", capacity_));
  }
  // Insert after all entries of >= priority, preserving stable order. The
  // vector is sorted by descending priority, so that slot is a partition
  // point and a binary search finds it.
  const auto pos = std::partition_point(entries_.begin(), entries_.end(),
                                        [&](const FlowEntry& e) {
                                          return e.priority >= entry.priority;
                                        });
  entries_.insert(pos, std::move(entry));
  indexDirty_ = true;
  ++addsTotal_;
  return {};
}

std::size_t FlowTable::removeByCookie(std::uint64_t cookie) {
  const auto it = std::remove_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
    return e.cookie == cookie;
  });
  const auto removed = static_cast<std::size_t>(entries_.end() - it);
  entries_.erase(it, entries_.end());
  indexDirty_ = indexDirty_ || removed > 0;
  removesTotal_ += removed;
  return removed;
}

std::size_t FlowTable::removeByEpoch(std::uint32_t epoch) {
  const auto it = std::remove_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
    return cookieEpoch(e.cookie) == epoch;
  });
  const auto removed = static_cast<std::size_t>(entries_.end() - it);
  entries_.erase(it, entries_.end());
  indexDirty_ = indexDirty_ || removed > 0;
  removesTotal_ += removed;
  return removed;
}

std::size_t FlowTable::removeByTenant(std::uint16_t tenant) {
  const auto it = std::remove_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
    return cookieTenant(e.cookie) == tenant;
  });
  const auto removed = static_cast<std::size_t>(entries_.end() - it);
  entries_.erase(it, entries_.end());
  indexDirty_ = indexDirty_ || removed > 0;
  removesTotal_ += removed;
  return removed;
}

std::size_t FlowTable::countTenant(std::uint16_t tenant) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
        return cookieTenant(e.cookie) == tenant;
      }));
}

std::size_t FlowTable::restampEpoch(std::uint32_t epoch, bool tenantOnly) {
  std::size_t changed = 0;
  for (FlowEntry& e : entries_) {
    if (tenantOnly && cookieTenant(e.cookie) != epochTenant(epoch)) continue;
    if (cookieEpoch(e.cookie) == epoch) continue;
    e.cookie = makeCookie(epoch, cookieTag(e.cookie));
    ++changed;
  }
  restampsTotal_ += changed;
  return changed;
}

std::size_t FlowTable::countEpoch(std::uint32_t epoch) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
        return cookieEpoch(e.cookie) == epoch;
      }));
}

bool FlowTable::removeExact(const FlowEntry& entry) {
  const auto it = std::find_if(entries_.begin(), entries_.end(), [&](const FlowEntry& e) {
    return sameRule(e, entry);
  });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  indexDirty_ = true;
  ++removesTotal_;
  return true;
}

void FlowTable::clear() {
  removesTotal_ += entries_.size();
  entries_.clear();
  indexDirty_ = true;
}

void FlowTable::buildIndex() const {
  index_.clear();
  residual_.clear();
  for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
    const Match& m = entries_[pos].match;
    if (m.inPort && m.dstAddr) {
      index_[indexKey(*m.inPort, *m.dstAddr)].push_back(pos);
    } else {
      residual_.push_back(pos);
    }
  }
  indexDirty_ = false;
}

std::uint32_t FlowTable::findPos(const PacketHeader& header) const {
  if (indexDirty_) buildIndex();
  // Epoch gate (consistent updates): a stamped header matches only rules of
  // its own epoch or epoch-wildcard rules; an unstamped header (epoch 0)
  // matches everything, preserving pre-epoch behaviour.
  const auto epochOk = [&](const FlowEntry& e) {
    const std::uint32_t re = cookieEpoch(e.cookie);
    return header.epoch == 0 || re == 0 || re == header.epoch;
  };
  std::uint32_t best = kNoPos;
  const auto bucket = index_.find(indexKey(header.inPort, header.dstAddr));
  if (bucket != index_.end()) {
    // Positions are ascending, i.e. in match-preference order: the first
    // full match in the bucket is the best indexed candidate.
    for (const std::uint32_t pos : bucket->second) {
      if (epochOk(entries_[pos]) && entries_[pos].match.matches(header)) {
        best = pos;
        break;
      }
    }
  }
  for (const std::uint32_t pos : residual_) {
    if (pos >= best) break;  // ascending: cannot beat the indexed winner
    if (epochOk(entries_[pos]) && entries_[pos].match.matches(header)) {
      best = pos;
      break;
    }
  }
  return best;
}

const FlowEntry* FlowTable::lookup(const PacketHeader& header) const {
  const std::uint32_t pos = findPos(header);
  return pos == kNoPos ? nullptr : &entries_[pos];
}

const FlowEntry* FlowTable::lookupAndCount(const PacketHeader& header, std::int64_t bytes) {
  const std::uint32_t pos = findPos(header);
  if (pos == kNoPos) return nullptr;
  FlowEntry& e = entries_[pos];
  ++e.packetCount;
  e.byteCount += static_cast<std::uint64_t>(bytes);
  return &e;
}

}  // namespace sdt::openflow
