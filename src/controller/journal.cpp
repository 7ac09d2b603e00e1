#include "controller/journal.hpp"

#include <cinttypes>
#include <cstdio>
#include <limits>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace sdt::controller {
namespace {

constexpr std::uint32_t kMagic = 0x4A544453;  // "SDTJ" little-endian
constexpr std::size_t kHeaderBytes = 12;      // magic + length + checksum

void putU32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t getU32(std::string_view bytes, std::size_t pos) {
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

// 64-bit fields round-trip as hex strings: json::Value stores numbers as
// double, which is exact only below 2^53 — not enough for an arbitrary salt.
std::string hexU64(std::uint64_t v) { return strFormat("%" PRIx64, v); }

/// One record, framed and checksummed, ready for storage.
std::string frameRecord(const JournalRecord& record) {
  const std::string payload = record.toJson().dump();
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  putU32(frame, kMagic);
  putU32(frame, static_cast<std::uint32_t>(payload.size()));
  putU32(frame, hash::fnv1a32(payload));
  frame += payload;
  return frame;
}

Result<std::uint64_t> parseHexU64(const std::string& s) {
  if (s.empty()) return makeError("empty u64 hex field");
  if (s.size() > 16) {
    return makeError(strFormat("u64 hex field '%s' has over 16 digits", s.c_str()));
  }
  std::uint64_t v = 0;
  for (const char c : s) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') digit = static_cast<std::uint64_t>(c - 'A') + 10;
    else return makeError(strFormat("bad u64 hex field '%s'", s.c_str()));
    v = (v << 4) | digit;
  }
  return v;
}

Result<JournalRecordKind> kindFromName(const std::string& name) {
  for (const JournalRecordKind k :
       {JournalRecordKind::kDeploy, JournalRecordKind::kTxPrepare,
        JournalRecordKind::kTxFlip, JournalRecordKind::kTxGc,
        JournalRecordKind::kTxCommit, JournalRecordKind::kTxAbort,
        JournalRecordKind::kRecovery}) {
    if (name == journalRecordKindName(k)) return k;
  }
  return makeError(strFormat("unknown journal record kind '%s'", name.c_str()));
}

}  // namespace

const char* journalRecordKindName(JournalRecordKind kind) {
  switch (kind) {
    case JournalRecordKind::kDeploy: return "deploy";
    case JournalRecordKind::kTxPrepare: return "tx-prepare";
    case JournalRecordKind::kTxFlip: return "tx-flip";
    case JournalRecordKind::kTxGc: return "tx-gc";
    case JournalRecordKind::kTxCommit: return "tx-commit";
    case JournalRecordKind::kTxAbort: return "tx-abort";
    case JournalRecordKind::kRecovery: return "recovery";
  }
  return "?";
}

json::Value JournalRecord::toJson() const {
  json::Object obj;
  obj["kind"] = journalRecordKindName(kind);
  obj["seq"] = static_cast<std::int64_t>(seq);
  obj["at"] = static_cast<std::int64_t>(at);
  obj["epoch"] = static_cast<std::int64_t>(epoch);
  obj["fromEpoch"] = static_cast<std::int64_t>(fromEpoch);
  obj["toEpoch"] = static_cast<std::int64_t>(toEpoch);
  obj["topology"] = topology;
  obj["routing"] = routing;
  obj["ecmpSalt"] = hexU64(ecmpSalt);
  return obj;
}

Result<JournalRecord> JournalRecord::fromJson(const json::Value& doc) {
  if (!doc.isObject()) return makeError("journal record is not a JSON object");
  JournalRecord rec;
  auto kind = kindFromName(doc.getString("kind", ""));
  if (!kind) return kind.error();
  rec.kind = kind.value();
  // Range-checked, not cast: a forged frame must not wrap into a
  // valid-looking sequence number or epoch.
  const std::int64_t seq = doc.getInt("seq", 0);
  if (seq < 0) return makeError("journal record has a negative seq");
  rec.seq = static_cast<std::uint64_t>(seq);
  rec.at = doc.getInt("at", 0);
  for (const auto& [key, field] : {std::pair{"epoch", &rec.epoch},
                                   std::pair{"fromEpoch", &rec.fromEpoch},
                                   std::pair{"toEpoch", &rec.toEpoch}}) {
    const std::int64_t v = doc.getInt(key, 0);
    if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
      return makeError(strFormat("journal record %s out of range", key));
    }
    *field = static_cast<std::uint32_t>(v);
  }
  rec.topology = doc.getString("topology", "");
  rec.routing = doc.getString("routing", "");
  auto salt = parseHexU64(doc.getString("ecmpSalt", "0"));
  if (!salt) return salt.error();
  rec.ecmpSalt = salt.value();
  return rec;
}

json::Value JournalState::toJson() const {
  json::Object obj;
  obj["valid"] = valid;
  obj["topology"] = topology;
  obj["routing"] = routing;
  obj["epoch"] = static_cast<std::int64_t>(epoch);
  obj["ecmpSalt"] = hexU64(ecmpSalt);
  obj["txOpen"] = txOpen;
  if (txOpen) {
    obj["txFlipped"] = txFlipped;
    obj["txGcStarted"] = txGcStarted;
    obj["txTopology"] = txTopology;
    obj["txRouting"] = txRouting;
    obj["txFromEpoch"] = static_cast<std::int64_t>(txFromEpoch);
    obj["txToEpoch"] = static_cast<std::int64_t>(txToEpoch);
    obj["txEcmpSalt"] = hexU64(txEcmpSalt);
  }
  return obj;
}

JournalState foldJournal(const std::vector<JournalRecord>& records) {
  JournalState st;
  const auto closeTx = [&st]() {
    st.txOpen = st.txFlipped = st.txGcStarted = false;
    st.txTopology.clear();
    st.txRouting.clear();
    st.txFromEpoch = st.txToEpoch = 0;
    st.txEcmpSalt = 0;
  };
  for (const JournalRecord& rec : records) {
    switch (rec.kind) {
      case JournalRecordKind::kDeploy:
      case JournalRecordKind::kRecovery:
        // A fresh deploy supersedes everything, including a transaction the
        // old controller never resolved; a recovery record is the resolution.
        st.valid = true;
        st.topology = rec.topology;
        st.routing = rec.routing;
        st.epoch = rec.epoch;
        st.ecmpSalt = rec.ecmpSalt;
        closeTx();
        break;
      case JournalRecordKind::kTxPrepare:
        st.txOpen = true;
        st.txFlipped = st.txGcStarted = false;
        st.txTopology = rec.topology;
        st.txRouting = rec.routing;
        st.txFromEpoch = rec.fromEpoch;
        st.txToEpoch = rec.toEpoch;
        st.txEcmpSalt = rec.ecmpSalt;
        break;
      case JournalRecordKind::kTxFlip:
        if (st.txOpen) st.txFlipped = true;
        break;
      case JournalRecordKind::kTxGc:
        if (st.txOpen) st.txGcStarted = true;
        break;
      case JournalRecordKind::kTxCommit:
        if (st.txOpen) {
          st.valid = true;
          st.topology = st.txTopology;
          st.routing = st.txRouting;
          st.epoch = st.txToEpoch;
          st.ecmpSalt = st.txEcmpSalt;
        }
        closeTx();
        break;
      case JournalRecordKind::kTxAbort:
        closeTx();
        break;
    }
  }
  return st;
}

FileJournalStorage::~FileJournalStorage() {
  if (file_ != nullptr) std::fclose(file_);
}

Status<Error> FileJournalStorage::append(std::string_view bytes) {
  if (file_ == nullptr) {
    file_ = std::fopen(path_.c_str(), "ab");
    if (file_ == nullptr) {
      return makeError(strFormat("cannot open journal '%s' for append", path_.c_str()));
    }
  }
  const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), file_);
  if (wrote != bytes.size() || std::fflush(file_) != 0) {
    return makeError(strFormat("short write to journal '%s'", path_.c_str()));
  }
  return {};
}

Result<std::string> FileJournalStorage::read() const {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return std::string{};  // no file yet == empty journal
  std::string out;
  char buf[4096];
  for (;;) {
    const std::size_t got = std::fread(buf, 1, sizeof(buf), f);
    out.append(buf, got);
    if (got < sizeof(buf)) break;
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return makeError(strFormat("read error on journal '%s'", path_.c_str()));
  return out;
}

Journal::Journal(JournalStorage& storage) : storage_(&storage) { rescan(); }

void Journal::rescan() {
  nextSeq_ = 1;
  if (const auto replayed = replay()) {
    for (const JournalRecord& rec : replayed.value().records) {
      nextSeq_ = std::max(nextSeq_, rec.seq + 1);
    }
  }
}

Status<Error> Journal::append(JournalRecord record) {
  record.seq = nextSeq_;
  if (auto st = storage_->append(frameRecord(record)); !st) return st;
  ++nextSeq_;  // only after the durable append succeeded
  if (observer_) observer_(record);
  return {};
}

Status<Error> Journal::appendReplica(const JournalRecord& record) {
  if (auto st = storage_->append(frameRecord(record)); !st) return st;
  if (record.seq >= nextSeq_) nextSeq_ = record.seq + 1;
  return {};
}

Result<JournalReplay> Journal::replay() const {
  auto bytes = storage_->read();
  if (!bytes) return bytes.error();
  const std::string& data = bytes.value();

  JournalReplay out;
  std::size_t pos = 0;
  while (pos < data.size()) {
    // Any framing violation ends the replay: with no resync marker inside
    // payloads, bytes past the first bad frame cannot be trusted.
    if (data.size() - pos < kHeaderBytes) break;
    if (getU32(data, pos) != kMagic) break;
    const std::size_t len = getU32(data, pos + 4);
    const std::uint32_t checksum = getU32(data, pos + 8);
    if (data.size() - pos - kHeaderBytes < len) break;  // torn tail
    const std::string_view payload(data.data() + pos + kHeaderBytes, len);
    if (hash::fnv1a32(payload) != checksum) break;
    auto doc = json::parse(payload);
    if (!doc) break;
    auto rec = JournalRecord::fromJson(doc.value());
    if (!rec) break;
    out.records.push_back(std::move(rec).value());
    pos += kHeaderBytes + len;
  }
  out.droppedBytes = data.size() - pos;
  out.state = foldJournal(out.records);
  return out;
}

}  // namespace sdt::controller
