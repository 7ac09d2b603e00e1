#include "openflow/flow_table.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace sdt::openflow {

std::string Match::describe() const {
  std::string out = "{";
  const auto field = [&](const char* name, auto opt) {
    if (opt) out += strFormat("%s=%lld ", name, static_cast<long long>(*opt));
  };
  field("in", inPort);
  field("dst", dstAddr);
  field("tc", trafficClass);
  if (out.back() == ' ') out.pop_back();
  out += "}";
  return out;
}

bool sameRule(const FlowEntry& a, const FlowEntry& b) {
  return a.priority == b.priority && a.cookie == b.cookie && a.match == b.match &&
         a.setVc == b.setVc && a.outPort == b.outPort;
}

Status<Error> FlowTable::add(FlowEntry entry) {
  if (full()) {
    return makeError(strFormat("flow table full (%zu entries)", capacity_));
  }
  if (!entry.match.inPort || !entry.match.dstAddr) {
    return makeError("flow rule " + entry.match.describe() +
                     " does not name an exact in_port and destination");
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
  for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
    const Match& m = entries_[pos].match;
    index_[indexKey(*m.inPort, *m.dstAddr)].push_back(pos);
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
  const auto bucket = index_.find(indexKey(header.inPort, header.dstAddr));
  if (bucket == index_.end()) return kNoPos;
  // Positions are ascending, i.e. in match-preference order: the first
  // full match in the bucket wins.
  for (const std::uint32_t pos : bucket->second) {
    if (epochOk(entries_[pos]) && entries_[pos].match.matches(header)) return pos;
  }
  return kNoPos;
}

const FlowEntry* FlowTable::lookup(const PacketHeader& header) const {
  const std::uint32_t pos = findPos(header);
  return pos == kNoPos ? nullptr : &entries_[pos];
}

const FlowEntry* FlowTable::lookupAndCount(const PacketHeader& header) {
  const std::uint32_t pos = findPos(header);
  if (pos == kNoPos) return nullptr;
  FlowEntry& e = entries_[pos];
  ++e.packetCount;
  return &e;
}

}  // namespace sdt::openflow
