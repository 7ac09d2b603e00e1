// Write-ahead intent journal: the controller's only state that survives a
// crash.
//
// The SDT controller is a single process (the paper runs one Ryu instance);
// everything it knows about the fabric — which topology is deployed, which
// epoch the rules carry, whether a two-phase reconfiguration is mid-flight —
// lives in that process. A crash between planUpdate() and GC would strand
// the fabric in a mixed two-epoch state forever. This journal fixes that by
// the classic WAL discipline: the controller appends an *intent* record
// before every externally-visible action (deploy, transaction prepare, the
// first flip send, the first GC send, commit/abort), so a restarted
// controller can always answer "what did I mean to do, and how far could I
// have gotten?" without trusting any in-memory state.
//
// Record framing is torn-write tolerant: every record is
//   [magic u32][payload length u32][FNV-1a-32 checksum u32][payload bytes]
// (all little-endian; payload is one compact JSON document). A crash mid-
// append leaves a truncated or checksum-failing tail, which replay() drops
// silently — the journal is exactly the durable prefix. Records carry
// *simulated* time only, never wall-clock, so journaled runs stay
// bit-identical across repeats and serial-vs-threaded sweeps.
//
// Storage is pluggable: MemoryJournalStorage for tests and simulations (and
// for torn-write fault injection — tests truncate the byte string directly),
// FileJournalStorage for sdtctl post-mortems.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "common/units.hpp"

namespace sdt::controller {

enum class JournalRecordKind : std::uint8_t {
  kDeploy,     ///< cold deploy: `topology`/`routing` live at `epoch`
  kTxPrepare,  ///< transaction planned: fromEpoch -> toEpoch, target intent
  kTxFlip,     ///< about to send the first flip (commit point may be crossed)
  kTxGc,       ///< drain done, about to send epoch-`fromEpoch` deletes
  kTxCommit,   ///< transaction finished committed (GC done or backstopped)
  kTxAbort,    ///< transaction aborted and rolled back to `fromEpoch`
  kRecovery,   ///< crash recovery converged the fabric onto `topology`@`epoch`
};

const char* journalRecordKindName(JournalRecordKind kind);

struct JournalRecord {
  JournalRecordKind kind = JournalRecordKind::kDeploy;
  std::uint64_t seq = 0;        ///< assigned by Journal::append, monotonic
  TimeNs at = 0;                ///< simulated time (never wall-clock)
  std::uint32_t epoch = 0;      ///< epoch this record establishes / refers to
  std::uint32_t fromEpoch = 0;  ///< transaction records only
  std::uint32_t toEpoch = 0;
  std::string topology;         ///< intent identity: topo::Topology::name()
  std::string routing;          ///< routing::RoutingAlgorithm::name()
  std::uint64_t ecmpSalt = 0;   ///< DeployOptions::ecmpSalt the tables used

  [[nodiscard]] json::Value toJson() const;
  static Result<JournalRecord> fromJson(const json::Value& doc);
};

/// The journal folded down to "what should the fabric look like right now":
/// the last durable intent plus the open transaction, if any. This is the
/// whole input to the crash-recovery decision (controller/recovery.hpp).
struct JournalState {
  bool valid = false;          ///< at least one deploy/recovery record
  std::string topology;        ///< live intent
  std::string routing;
  std::uint32_t epoch = 0;
  std::uint64_t ecmpSalt = 0;

  bool txOpen = false;         ///< prepare journaled, no commit/abort yet
  bool txFlipped = false;      ///< flip marker journaled: roll FORWARD
  bool txGcStarted = false;    ///< gc marker journaled (still roll forward)
  std::string txTopology;      ///< the open transaction's target intent
  std::string txRouting;
  std::uint32_t txFromEpoch = 0;
  std::uint32_t txToEpoch = 0;
  std::uint64_t txEcmpSalt = 0;

  [[nodiscard]] json::Value toJson() const;
};

/// Fold records (in order) into the derived state.
[[nodiscard]] JournalState foldJournal(const std::vector<JournalRecord>& records);

/// Byte-oriented durable backend. Framing and checksums live in Journal, so
/// every backend gets torn-write tolerance for free.
class JournalStorage {
 public:
  virtual ~JournalStorage() = default;
  virtual Status<Error> append(std::string_view bytes) = 0;
  [[nodiscard]] virtual Result<std::string> read() const = 0;
};

class MemoryJournalStorage final : public JournalStorage {
 public:
  Status<Error> append(std::string_view bytes) override {
    bytes_.append(bytes);
    return {};
  }
  [[nodiscard]] Result<std::string> read() const override { return bytes_; }
  /// Swap the whole journal for `bytes` (HA snapshot catch-up).
  void replaceAll(std::string_view bytes) { bytes_.assign(bytes); }

  /// Test access: fault injection truncates or flips bytes here to model
  /// torn writes and media corruption.
  [[nodiscard]] std::string& bytes() { return bytes_; }

 private:
  std::string bytes_;
};

/// Appends to a file, flushed per record (the modeled fsync). Reads the
/// whole file back for replay; a missing file is an empty journal.
class FileJournalStorage final : public JournalStorage {
 public:
  explicit FileJournalStorage(std::string path) : path_(std::move(path)) {}
  ~FileJournalStorage() override;
  Status<Error> append(std::string_view bytes) override;
  [[nodiscard]] Result<std::string> read() const override;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;  ///< append handle, opened lazily
};

struct JournalReplay {
  std::vector<JournalRecord> records;
  JournalState state;            ///< foldJournal(records)
  std::size_t droppedBytes = 0;  ///< torn/corrupt tail discarded by replay
};

class Journal {
 public:
  /// Binds to (and scans) the storage: appends continue the durable
  /// sequence numbering, so a recovered controller journals seamlessly
  /// after the crashed one's records.
  explicit Journal(JournalStorage& storage);

  /// Frame, checksum, and durably append one record (seq is assigned here).
  Status<Error> append(JournalRecord record);

  /// Replication tap (controller/ha.hpp): called after every successful
  /// append() with the record as durably written (seq assigned) — the
  /// leader's streamer ships exactly what hit storage, never a reordering
  /// of it. Not invoked for appendReplica().
  using AppendObserver = std::function<void(const JournalRecord&)>;
  void setAppendObserver(AppendObserver observer) {
    observer_ = std::move(observer);
  }

  /// Replica-side append (journal streaming): durably append a record that
  /// already carries the leader's seq, preserved verbatim so the replica's
  /// byte stream folds — and numbers — identically to the leader's. The
  /// next leader-side append() on this journal continues past it.
  Status<Error> appendReplica(const JournalRecord& record);

  /// Re-scan storage after an out-of-band rewrite (snapshot catch-up swaps
  /// the whole backing store via MemoryJournalStorage::replaceAll): picks up
  /// the new sequence horizon without constructing a fresh Journal.
  void rescan();

  /// Decode every intact record; a truncated or checksum-failing record
  /// ends the replay (the stream has no resync point past corruption —
  /// everything after the first bad frame is reported in droppedBytes).
  [[nodiscard]] Result<JournalReplay> replay() const;

  [[nodiscard]] std::uint64_t nextSeq() const { return nextSeq_; }

 private:
  JournalStorage* storage_;
  std::uint64_t nextSeq_ = 1;
  AppendObserver observer_;
};

}  // namespace sdt::controller
