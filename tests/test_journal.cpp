// Tests: the write-ahead intent journal — record framing, torn-write
// tolerance, checksum verification, the file backend, and the fold from a
// record stream to "what should the fabric look like right now".
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "controller/journal.hpp"

namespace sdt::controller {
namespace {

JournalRecord deployRecord(std::uint32_t epoch, const std::string& topo) {
  JournalRecord r;
  r.kind = JournalRecordKind::kDeploy;
  r.at = usToNs(5.0);
  r.epoch = epoch;
  r.topology = topo;
  r.routing = "ecmp";
  r.ecmpSalt = 0x9E3779B97F4A7C15ULL;  // > 2^53: must survive JSON round-trip
  return r;
}

JournalRecord txRecord(JournalRecordKind kind, std::uint32_t from,
                       std::uint32_t to, const std::string& target) {
  JournalRecord r;
  r.kind = kind;
  r.at = usToNs(7.0);
  r.epoch = kind == JournalRecordKind::kTxCommit ? to : from;
  r.fromEpoch = from;
  r.toEpoch = to;
  r.topology = target;
  r.routing = "ecmp";
  return r;
}

TEST(Journal, AppendReplayRoundTripsEveryRecordKind) {
  MemoryJournalStorage storage;
  Journal journal(storage);

  std::vector<JournalRecord> written;
  written.push_back(deployRecord(1, "line6"));
  written.push_back(txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6"));
  written.push_back(txRecord(JournalRecordKind::kTxFlip, 1, 2, "ring6"));
  written.push_back(txRecord(JournalRecordKind::kTxGc, 1, 2, "ring6"));
  written.push_back(txRecord(JournalRecordKind::kTxCommit, 1, 2, "ring6"));
  for (JournalRecord& r : written) {
    ASSERT_TRUE(journal.append(r).ok());
  }
  EXPECT_EQ(journal.nextSeq(), 6u);

  auto replayed = journal.replay();
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  const JournalReplay& rep = replayed.value();
  EXPECT_EQ(rep.droppedBytes, 0u);
  ASSERT_EQ(rep.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    const JournalRecord& got = rep.records[i];
    EXPECT_EQ(got.seq, i + 1) << "record " << i;
    EXPECT_EQ(got.kind, written[i].kind) << "record " << i;
    EXPECT_EQ(got.at, written[i].at) << "record " << i;
    EXPECT_EQ(got.epoch, written[i].epoch) << "record " << i;
    EXPECT_EQ(got.fromEpoch, written[i].fromEpoch) << "record " << i;
    EXPECT_EQ(got.toEpoch, written[i].toEpoch) << "record " << i;
    EXPECT_EQ(got.topology, written[i].topology) << "record " << i;
    EXPECT_EQ(got.routing, written[i].routing) << "record " << i;
    EXPECT_EQ(got.ecmpSalt, written[i].ecmpSalt) << "record " << i;
  }
}

TEST(Journal, EmptyStorageReplaysToInvalidState) {
  MemoryJournalStorage storage;
  const Journal journal(storage);
  auto replayed = journal.replay();
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed.value().records.empty());
  EXPECT_FALSE(replayed.value().state.valid);
  EXPECT_EQ(replayed.value().droppedBytes, 0u);
}

TEST(Journal, TornWriteDropsOnlyTheTruncatedTail) {
  MemoryJournalStorage storage;
  Journal journal(storage);
  ASSERT_TRUE(journal.append(deployRecord(1, "line6")).ok());
  const std::size_t durable = storage.bytes().size();
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6")).ok());

  // A crash mid-append can leave any prefix of the second record, including
  // a partial header. Every cut must replay to exactly the first record.
  const std::string full = storage.bytes();
  for (std::size_t cut = durable; cut < full.size(); ++cut) {
    storage.bytes() = full.substr(0, cut);
    auto replayed = journal.replay();
    ASSERT_TRUE(replayed.ok());
    ASSERT_EQ(replayed.value().records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(replayed.value().records[0].topology, "line6");
    EXPECT_EQ(replayed.value().droppedBytes, cut - durable) << "cut at " << cut;
  }
}

TEST(Journal, CorruptPayloadByteEndsReplayAtThatRecord) {
  MemoryJournalStorage storage;
  Journal journal(storage);
  ASSERT_TRUE(journal.append(deployRecord(1, "line6")).ok());
  const std::size_t durable = storage.bytes().size();
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6")).ok());
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxFlip, 1, 2, "ring6")).ok());

  // Flip one payload byte inside the SECOND record: the checksum must refuse
  // it, and — with no resync point — the third record is unreachable too.
  storage.bytes()[durable + 14] ^= 0x40;
  auto replayed = journal.replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed.value().records.size(), 1u);
  EXPECT_EQ(replayed.value().records[0].kind, JournalRecordKind::kDeploy);
  EXPECT_EQ(replayed.value().droppedBytes, storage.bytes().size() - durable);
}

/// A frame laid out exactly as Journal::append writes one, around an
/// arbitrary payload: its checksum is valid, so only field validation can
/// refuse it.
std::string forgeFrame(const std::string& payload) {
  std::string frame;
  for (const std::uint32_t word :
       {0x4A544453u /* "SDTJ" */, static_cast<std::uint32_t>(payload.size()),
        hash::fnv1a32(payload)}) {
    for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(word >> (8 * i)));
  }
  return frame + payload;
}

// Regression: fromJson truncated epochs to uint32 (a forged epoch 2^32 + 1
// replayed as epoch 1), accepted a negative seq, and parseHexU64 silently
// dropped digits past the 16th. Each now ends the replay at that frame,
// like any other bad frame.
TEST(Journal, OutOfRangeFieldsEndReplayAtTheForgedFrame) {
  const std::string tail = R"("at":0,"topology":"ring6","routing":"ecmp")";
  const auto record = [&](const std::string& fields, const std::string& salt) {
    return "{" + fields + "," + tail + R"(,"ecmpSalt":")" + salt + R"("})";
  };
  const std::string forged[] = {
      record(R"("kind":"deploy","seq":2,"epoch":4294967297)", "0"),
      record(R"("kind":"deploy","seq":2,"epoch":-5e19)", "0"),
      record(R"("kind":"deploy","seq":-5,"epoch":4)", "0"),
      record(R"("kind":"tx-prepare","seq":2,"epoch":3,"fromEpoch":-1,"toEpoch":4)",
             "0"),
      record(R"("kind":"tx-prepare","seq":2,"epoch":3,"fromEpoch":3,)"
             R"("toEpoch":4294967296)",
             "0"),
      record(R"("kind":"deploy","seq":2,"epoch":4)", "10000000000000000"),
  };
  for (const std::string& payload : forged) {
    MemoryJournalStorage storage;
    Journal journal(storage);
    ASSERT_TRUE(journal.append(deployRecord(3, "line6")).ok());
    const std::size_t intact = storage.bytes().size();
    storage.bytes() += forgeFrame(payload);
    auto replayed = journal.replay();
    ASSERT_TRUE(replayed.ok()) << replayed.error().message;
    EXPECT_EQ(replayed.value().records.size(), 1u) << payload;
    EXPECT_EQ(replayed.value().droppedBytes, storage.bytes().size() - intact) << payload;
    EXPECT_EQ(replayed.value().state.epoch, 3u) << payload;
    EXPECT_EQ(replayed.value().state.topology, "line6") << payload;
  }
  // Control: the same frame with in-range fields replays.
  MemoryJournalStorage storage;
  Journal journal(storage);
  ASSERT_TRUE(journal.append(deployRecord(3, "line6")).ok());
  storage.bytes() += forgeFrame(
      record(R"("kind":"deploy","seq":2,"epoch":4294967295)", "ffffffffffffffff"));
  auto replayed = journal.replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed.value().records.size(), 2u);
  EXPECT_EQ(replayed.value().droppedBytes, 0u);
  EXPECT_EQ(replayed.value().state.epoch, 4294967295u);
  EXPECT_EQ(replayed.value().state.ecmpSalt, ~std::uint64_t{0});
}

TEST(Journal, SequenceNumberingContinuesAcrossRebind) {
  MemoryJournalStorage storage;
  {
    Journal journal(storage);
    ASSERT_TRUE(journal.append(deployRecord(1, "line6")).ok());
    ASSERT_TRUE(
        journal.append(txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6")).ok());
  }
  // A recovered controller binds a fresh Journal to the surviving bytes and
  // must continue, not restart, the sequence.
  Journal reborn(storage);
  EXPECT_EQ(reborn.nextSeq(), 3u);
  ASSERT_TRUE(reborn.append(deployRecord(2, "ring6")).ok());
  auto replayed = reborn.replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed.value().records.size(), 3u);
  EXPECT_EQ(replayed.value().records[2].seq, 3u);
}

TEST(Journal, CompactFoldsQuiescentHistoryToOneCheckpoint) {
  MemoryJournalStorage storage;
  Journal journal(storage);
  ASSERT_TRUE(journal.append(deployRecord(1, "line6")).ok());
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6")).ok());
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxFlip, 1, 2, "ring6")).ok());
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxCommit, 1, 2, "ring6")).ok());
  const JournalState before = journal.replay().value().state;
  const std::size_t fatBytes = storage.bytes().size();

  auto compacted = journal.compact();
  ASSERT_TRUE(compacted.ok()) << compacted.error().message;
  EXPECT_EQ(compacted.value(), 3u);  // four records folded into one checkpoint
  EXPECT_LT(storage.bytes().size(), fatBytes);

  auto replayed = journal.replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed.value().records.size(), 1u);
  EXPECT_EQ(replayed.value().records[0].kind, JournalRecordKind::kCheckpoint);
  // The checkpoint folds back to exactly the pre-compaction derived state.
  const JournalState after = replayed.value().state;
  EXPECT_TRUE(after.valid);
  EXPECT_EQ(after.topology, before.topology);
  EXPECT_EQ(after.routing, before.routing);
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.ecmpSalt, before.ecmpSalt);
  EXPECT_FALSE(after.txOpen);

  // Sequence numbering continues across the truncation: a record appended
  // after compaction orders after everything ever written, and a rebound
  // journal agrees.
  const std::uint64_t seqAfterCompact = journal.nextSeq();
  EXPECT_GT(seqAfterCompact, 4u);
  ASSERT_TRUE(journal.append(deployRecord(3, "mesh6")).ok());
  Journal reborn(storage);
  EXPECT_EQ(reborn.nextSeq(), seqAfterCompact + 1);
  EXPECT_EQ(reborn.replay().value().state.topology, "mesh6");
}

TEST(Journal, CompactKeepsOpenTransactionMarkers) {
  MemoryJournalStorage storage;
  Journal journal(storage);
  ASSERT_TRUE(journal.append(deployRecord(1, "line6")).ok());
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6")).ok());
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxFlip, 1, 2, "ring6")).ok());

  ASSERT_TRUE(journal.compact().ok());
  auto replayed = journal.replay();
  ASSERT_TRUE(replayed.ok());
  // A crash right after compaction must still roll FORWARD: the open
  // transaction's prepare and flip markers survive verbatim.
  const JournalState state = replayed.value().state;
  EXPECT_TRUE(state.valid);
  EXPECT_EQ(state.topology, "line6");
  EXPECT_TRUE(state.txOpen);
  EXPECT_TRUE(state.txFlipped);
  EXPECT_EQ(state.txTopology, "ring6");
  EXPECT_EQ(state.txFromEpoch, 1u);
  EXPECT_EQ(state.txToEpoch, 2u);
}

TEST(Journal, TornTruncateAfterCompactionReplaysToTheIntactPrefix) {
  MemoryJournalStorage storage;
  Journal journal(storage);
  ASSERT_TRUE(journal.append(deployRecord(1, "line6")).ok());
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6")).ok());
  ASSERT_TRUE(
      journal.append(txRecord(JournalRecordKind::kTxFlip, 1, 2, "ring6")).ok());
  ASSERT_TRUE(journal.compact().ok());

  // replaceAll is atomic old-or-new, but the NEW content itself may land
  // torn (a crash during the rewrite). Every cut of the compacted bytes
  // must replay to a clean record prefix — never an error, never garbage.
  const std::string full = storage.bytes();
  const std::size_t records = journal.replay().value().records.size();
  ASSERT_GE(records, 2u);  // checkpoint + open-tx markers
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    storage.bytes() = full.substr(0, cut);
    Journal reopened(storage);
    auto replayed = reopened.replay();
    ASSERT_TRUE(replayed.ok()) << "cut at " << cut;
    EXPECT_LT(replayed.value().records.size(), records) << "cut at " << cut;
    // Whatever prefix survived folds without crashing; with the checkpoint
    // intact the live intent is already correct.
    if (!replayed.value().records.empty()) {
      EXPECT_TRUE(replayed.value().state.valid) << "cut at " << cut;
      EXPECT_EQ(replayed.value().state.topology, "line6") << "cut at " << cut;
    }
  }
  storage.bytes() = full;
  EXPECT_EQ(Journal(storage).replay().value().records.size(), records);
}

TEST(Journal, FileBackendRoundTripsAndToleratesMissingFile) {
  const std::string path = ::testing::TempDir() + "sdt_journal_test.wal";
  std::remove(path.c_str());
  {
    FileJournalStorage storage(path);
    // Missing file reads as an empty journal, not an error.
    auto empty = storage.read();
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty.value().empty());
    Journal journal(storage);
    ASSERT_TRUE(journal.append(deployRecord(1, "line6")).ok());
    ASSERT_TRUE(
        journal.append(txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6")).ok());
  }
  // Reopen (new storage object, same file): both records survive.
  FileJournalStorage storage(path);
  const Journal journal(storage);
  auto replayed = journal.replay();
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  ASSERT_EQ(replayed.value().records.size(), 2u);
  EXPECT_EQ(replayed.value().records[1].topology, "ring6");
  EXPECT_EQ(journal.nextSeq(), 3u);
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// foldJournal: the record stream -> intended-fabric-state reduction that
// drives every recovery decision.
// --------------------------------------------------------------------------

TEST(JournalFold, DeployEstablishesLiveIntent) {
  const JournalState st = foldJournal({deployRecord(1, "line6")});
  EXPECT_TRUE(st.valid);
  EXPECT_EQ(st.topology, "line6");
  EXPECT_EQ(st.routing, "ecmp");
  EXPECT_EQ(st.epoch, 1u);
  EXPECT_EQ(st.ecmpSalt, 0x9E3779B97F4A7C15ULL);
  EXPECT_FALSE(st.txOpen);
}

TEST(JournalFold, PrepareOpensTransactionAndFlipMarksIt) {
  JournalState st = foldJournal(
      {deployRecord(1, "line6"),
       txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6")});
  EXPECT_TRUE(st.valid);
  EXPECT_EQ(st.topology, "line6");  // live intent untouched until commit
  EXPECT_TRUE(st.txOpen);
  EXPECT_FALSE(st.txFlipped);
  EXPECT_EQ(st.txTopology, "ring6");
  EXPECT_EQ(st.txFromEpoch, 1u);
  EXPECT_EQ(st.txToEpoch, 2u);

  st = foldJournal({deployRecord(1, "line6"),
                    txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6"),
                    txRecord(JournalRecordKind::kTxFlip, 1, 2, "ring6")});
  EXPECT_TRUE(st.txOpen);
  EXPECT_TRUE(st.txFlipped);
  EXPECT_FALSE(st.txGcStarted);

  st = foldJournal({deployRecord(1, "line6"),
                    txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6"),
                    txRecord(JournalRecordKind::kTxFlip, 1, 2, "ring6"),
                    txRecord(JournalRecordKind::kTxGc, 1, 2, "ring6")});
  EXPECT_TRUE(st.txFlipped);
  EXPECT_TRUE(st.txGcStarted);
}

TEST(JournalFold, CommitPromotesTargetAndAbortDiscardsIt) {
  const std::vector<JournalRecord> prefix = {
      deployRecord(1, "line6"),
      txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6"),
      txRecord(JournalRecordKind::kTxFlip, 1, 2, "ring6")};

  std::vector<JournalRecord> committed = prefix;
  committed.push_back(txRecord(JournalRecordKind::kTxCommit, 1, 2, "ring6"));
  JournalState st = foldJournal(committed);
  EXPECT_FALSE(st.txOpen);
  EXPECT_EQ(st.topology, "ring6");
  EXPECT_EQ(st.epoch, 2u);

  std::vector<JournalRecord> aborted = prefix;
  aborted.push_back(txRecord(JournalRecordKind::kTxAbort, 1, 2, "ring6"));
  st = foldJournal(aborted);
  EXPECT_FALSE(st.txOpen);
  EXPECT_EQ(st.topology, "line6");
  EXPECT_EQ(st.epoch, 1u);
}

TEST(JournalFold, RecoveryRecordClosesTransactionAndSetsLiveIntent) {
  JournalRecord rec = deployRecord(2, "ring6");
  rec.kind = JournalRecordKind::kRecovery;
  const JournalState st = foldJournal(
      {deployRecord(1, "line6"),
       txRecord(JournalRecordKind::kTxPrepare, 1, 2, "ring6"), rec});
  EXPECT_TRUE(st.valid);
  EXPECT_FALSE(st.txOpen);  // the next crash sees a clean slate
  EXPECT_EQ(st.topology, "ring6");
  EXPECT_EQ(st.epoch, 2u);
}

}  // namespace
}  // namespace sdt::controller
