#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "crypto/signature.h"
#include "proto/entry.h"
#include "replication/encoder.h"
#include "replication/rebuilder.h"
#include "replication/transfer_plan.h"

namespace massbft {
namespace {

// ------------------------------------------------------- Transfer plan

TEST(TransferPlanTest, PaperCaseStudy4x7) {
  // Section IV-B case study: LCM(4,7)=28 chunks, each G1 node sends 7,
  // each G2 node receives 4, parity = 1*7 + 2*4 = 15, data = 13,
  // ~2.15 entry copies on the WAN.
  auto plan = TransferPlan::Create(4, 7);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->n_total(), 28);
  EXPECT_EQ(plan->chunks_per_sender(), 7);
  EXPECT_EQ(plan->chunks_per_receiver(), 4);
  EXPECT_EQ(plan->n_parity(), 15);
  EXPECT_EQ(plan->n_data(), 13);
  EXPECT_NEAR(plan->EntryCopiesSent(), 28.0 / 13.0, 1e-9);
}

TEST(TransferPlanTest, EqualSizedGroups) {
  auto plan = TransferPlan::Create(7, 7);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->n_total(), 7);
  EXPECT_EQ(plan->chunks_per_sender(), 1);
  EXPECT_EQ(plan->n_parity(), 2 + 2);  // f=2 on both sides, nc=1.
  EXPECT_EQ(plan->n_data(), 3);
}

TEST(TransferPlanTest, InvalidInputs) {
  EXPECT_FALSE(TransferPlan::Create(0, 7).ok());
  EXPECT_FALSE(TransferPlan::Create(7, -1).ok());
  // LCM(16, 17) = 272 > 255: beyond the GF(2^8) shard budget.
  EXPECT_FALSE(TransferPlan::Create(16, 17).ok());
}

TEST(TransferPlanTest, AlgorithmLineMapping) {
  // Chunk c is sent by floor(c/nc1) and received by floor(c/nc2)
  // (Algorithm 1 lines 9 and 13).
  auto plan = TransferPlan::Create(4, 7);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->SenderOf(0), 0);
  EXPECT_EQ(plan->SenderOf(6), 0);
  EXPECT_EQ(plan->SenderOf(7), 1);
  EXPECT_EQ(plan->ReceiverOf(0), 0);
  EXPECT_EQ(plan->ReceiverOf(3), 0);
  EXPECT_EQ(plan->ReceiverOf(4), 1);
  EXPECT_EQ(plan->ReceiverOf(27), 6);
}

/// Property sweep over group-size pairs: every chunk is sent exactly once,
/// received exactly once, load is perfectly balanced, and the worst-case
/// loss bound leaves n_data chunks intact.
class TransferPlanPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TransferPlanPropertyTest, EveryChunkSentAndReceivedExactlyOnce) {
  auto [n1, n2] = GetParam();
  auto plan = TransferPlan::Create(n1, n2);
  ASSERT_TRUE(plan.ok());

  std::set<int> all_chunks;
  std::map<int, int> per_sender, per_receiver;
  for (const TransferTuple& t : plan->AllTuples()) {
    EXPECT_TRUE(all_chunks.insert(t.chunk).second) << "duplicate chunk";
    EXPECT_GE(t.sender, 0);
    EXPECT_LT(t.sender, n1);
    EXPECT_GE(t.receiver, 0);
    EXPECT_LT(t.receiver, n2);
    per_sender[t.sender]++;
    per_receiver[t.receiver]++;
  }
  EXPECT_EQ(static_cast<int>(all_chunks.size()), plan->n_total());
  for (auto& [s, count] : per_sender)
    EXPECT_EQ(count, plan->chunks_per_sender());
  for (auto& [r, count] : per_receiver)
    EXPECT_EQ(count, plan->chunks_per_receiver());
  EXPECT_EQ(static_cast<int>(per_sender.size()), n1);
  EXPECT_EQ(static_cast<int>(per_receiver.size()), n2);
}

TEST_P(TransferPlanPropertyTest, WorstCaseLossLeavesDataChunks) {
  auto [n1, n2] = GetParam();
  auto plan = TransferPlan::Create(n1, n2);
  ASSERT_TRUE(plan.ok());
  int f1 = (n1 - 1) / 3, f2 = (n2 - 1) / 3;
  // Kill the f1 *disjointly worst* senders and f2 receivers: the set of
  // surviving chunks must be >= n_data (the Section IV-B worst case).
  std::set<int> lost;
  for (int s = 0; s < f1; ++s)
    for (const TransferTuple& t : plan->TuplesForSender(s))
      lost.insert(t.chunk);
  for (int r = 0; r < n2 && static_cast<int>(lost.size()) <
                                plan->n_parity();
       ++r) {
    // Pick receivers whose chunks are disjoint from the lost senders'.
    auto tuples = plan->TuplesForReceiver(r);
    bool disjoint = true;
    for (const TransferTuple& t : tuples)
      if (lost.count(t.chunk) > 0) disjoint = false;
    if (!disjoint) continue;
    if (f2 == 0) break;
    for (const TransferTuple& t : tuples) lost.insert(t.chunk);
    --f2;
  }
  EXPECT_LE(static_cast<int>(lost.size()), plan->n_parity());
  EXPECT_GE(plan->n_total() - static_cast<int>(lost.size()), plan->n_data());
}

TEST_P(TransferPlanPropertyTest, SenderReceiverViewsAgree) {
  auto [n1, n2] = GetParam();
  auto plan = TransferPlan::Create(n1, n2);
  ASSERT_TRUE(plan.ok());
  std::map<int, TransferTuple> by_chunk;
  for (int s = 0; s < n1; ++s)
    for (const TransferTuple& t : plan->TuplesForSender(s))
      by_chunk[t.chunk] = t;
  for (int r = 0; r < n2; ++r)
    for (const TransferTuple& t : plan->TuplesForReceiver(r))
      EXPECT_EQ(by_chunk[t.chunk], t);
}

INSTANTIATE_TEST_SUITE_P(
    GroupSizes, TransferPlanPropertyTest,
    ::testing::Values(std::make_pair(4, 7), std::make_pair(7, 4),
                      std::make_pair(7, 7), std::make_pair(4, 4),
                      std::make_pair(1, 1), std::make_pair(1, 7),
                      std::make_pair(13, 13), std::make_pair(40, 40),
                      std::make_pair(10, 15), std::make_pair(19, 19),
                      std::make_pair(12, 8)));

// ------------------------------------------------------------- Encoder

TEST(EncoderTest, EncodesAllChunksWithValidProofs) {
  Entry entry(0, 1,
              {Transaction{1, 1, 0, Bytes(500, 0xAA)},
               Transaction{2, 2, 0, Bytes(500, 0xBB)}});
  auto plan = TransferPlan::Create(4, 7);
  ASSERT_TRUE(plan.ok());
  auto encoded = EncodeEntryForPlan(entry, *plan);
  ASSERT_TRUE(encoded.ok());
  ASSERT_EQ(static_cast<int>(encoded->chunks.size()), plan->n_total());
  for (const Chunk& c : encoded->chunks) {
    EXPECT_TRUE(MerkleTree::VerifyProof(encoded->merkle_root,
                                        MerkleTree::HashLeaf(c.data),
                                        c.proof))
        << "chunk " << c.chunk_id;
    EXPECT_EQ(c.proof.index, c.chunk_id);
    EXPECT_EQ(c.proof.leaf_count, static_cast<uint32_t>(plan->n_total()));
  }
}

TEST(EncoderTest, DeterministicAcrossSenders) {
  Entry entry(1, 9, {Transaction{5, 5, 0, Bytes(123, 0x55)}});
  auto plan = TransferPlan::Create(7, 7);
  ASSERT_TRUE(plan.ok());
  auto a = EncodeEntryForPlan(entry, *plan);
  auto b = EncodeEntryForPlan(entry, *plan);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->merkle_root, b->merkle_root);
}

TEST(EncoderTest, TamperedPayloadChangesRoot) {
  Entry entry(1, 9, {Transaction{5, 5, 0, Bytes(123, 0x55)}});
  auto plan = TransferPlan::Create(7, 7);
  ASSERT_TRUE(plan.ok());
  auto correct = EncodeEntryForPlan(entry, *plan);
  Bytes tampered = entry.Encoded();
  tampered[tampered.size() / 2] ^= 0xFF;
  auto bad = EncodeBytesForPlan(tampered, *plan);
  ASSERT_TRUE(correct.ok());
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(correct->merkle_root, bad->merkle_root);
}

// ----------------------------------------------------------- Rebuilder

class RebuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i)
      registry_.RegisterNode(NodeId{0, static_cast<uint16_t>(i)});
    entry_ = std::make_shared<const Entry>(
        0, 3,
        std::vector<Transaction>{Transaction{1, 1, 0, Bytes(2000, 0x42)}});
    plan_ = std::make_unique<TransferPlan>(*TransferPlan::Create(4, 7));
    encoded_ = std::make_unique<EncodedEntry>(
        *EncodeEntryForPlan(*entry_, *plan_));
    cert_.gid = 0;
    cert_.digest = entry_->digest();
    Bytes payload(cert_.digest.begin(), cert_.digest.end());
    for (int i = 0; i < 3; ++i) {  // 2f+1 = 3 for n=4.
      NodeId node{0, static_cast<uint16_t>(i)};
      cert_.AddSignature(node.index, registry_.Sign(node, payload));
    }
  }

  EntryRebuilder MakeRebuilder() {
    EntryRebuilder::Config cfg;
    cfg.n_total = plan_->n_total();
    cfg.n_data = plan_->n_data();
    cfg.validate = [this](const Certificate& cert, const Digest& digest) {
      return cert.digest == digest && cert.Verify(registry_, 3);
    };
    return EntryRebuilder(std::move(cfg));
  }

  KeyRegistry registry_;
  EntryPtr entry_;
  std::unique_ptr<TransferPlan> plan_;
  std::unique_ptr<EncodedEntry> encoded_;
  Certificate cert_;
};

TEST_F(RebuilderTest, RebuildsFromFirstNDataChunks) {
  EntryRebuilder rebuilder = MakeRebuilder();
  for (int c = 0; c < plan_->n_data() - 1; ++c) {
    EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, c,
                                 encoded_->chunks[c].data,
                                 encoded_->chunks[c].proof, cert_),
              EntryRebuilder::AddResult::kPending);
  }
  int last = plan_->n_data() - 1;
  EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, last,
                               encoded_->chunks[last].data,
                               encoded_->chunks[last].proof, cert_),
            EntryRebuilder::AddResult::kRebuilt);
  ASSERT_TRUE(rebuilder.complete());
  EXPECT_EQ(rebuilder.entry()->digest(), entry_->digest());
}

TEST_F(RebuilderTest, RebuildsFromParityOnlySubset) {
  EntryRebuilder rebuilder = MakeRebuilder();
  // Feed the LAST n_data chunks (mostly parity).
  for (int c = plan_->n_total() - plan_->n_data(); c < plan_->n_total();
       ++c) {
    auto result = rebuilder.AddChunk(encoded_->merkle_root, c,
                                     encoded_->chunks[c].data,
                                     encoded_->chunks[c].proof, cert_);
    if (c == plan_->n_total() - 1) {
      EXPECT_EQ(result, EntryRebuilder::AddResult::kRebuilt);
    }
  }
  ASSERT_TRUE(rebuilder.complete());
  EXPECT_EQ(rebuilder.entry()->digest(), entry_->digest());
}

TEST_F(RebuilderTest, DuplicateChunksIgnored) {
  EntryRebuilder rebuilder = MakeRebuilder();
  EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, 0,
                               encoded_->chunks[0].data,
                               encoded_->chunks[0].proof, cert_),
            EntryRebuilder::AddResult::kPending);
  EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, 0,
                               encoded_->chunks[0].data,
                               encoded_->chunks[0].proof, cert_),
            EntryRebuilder::AddResult::kDuplicate);
}

TEST_F(RebuilderTest, BadProofRejected) {
  EntryRebuilder rebuilder = MakeRebuilder();
  // Wrong index binding.
  EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, 1,
                               encoded_->chunks[0].data,
                               encoded_->chunks[0].proof, cert_),
            EntryRebuilder::AddResult::kRejected);
  // Tampered data with a valid-for-original proof.
  Bytes tampered = encoded_->chunks[0].data;
  tampered[0] ^= 1;
  EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, 0, tampered,
                               encoded_->chunks[0].proof, cert_),
            EntryRebuilder::AddResult::kRejected);
  // Out-of-range chunk id.
  MerkleProof proof = encoded_->chunks[0].proof;
  EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, 999,
                               encoded_->chunks[0].data, proof, cert_),
            EntryRebuilder::AddResult::kRejected);
}

TEST_F(RebuilderTest, TamperedBucketBannedThenCorrectBucketWins) {
  // Byzantine senders encode a consistently tampered entry: its chunks have
  // valid proofs under the *tampered* root and fill a bucket, but the
  // rebuilt entry fails certificate validation -> that root is banned
  // (IV-C). The ban is per-root, never per-chunk-id: the genuine entry's
  // chunks reuse the very same ids and must still rebuild, else a
  // Byzantine bucket covering ids 0..n_data-1 would be a liveness attack.
  Bytes tampered_payload = entry_->Encoded();
  tampered_payload[4] ^= 0xFF;
  auto tampered = EncodeBytesForPlan(tampered_payload, *plan_);
  ASSERT_TRUE(tampered.ok());

  EntryRebuilder rebuilder = MakeRebuilder();
  // Fill the tampered bucket to the rebuild threshold.
  for (int c = 0; c < plan_->n_data(); ++c) {
    auto result = rebuilder.AddChunk(tampered->merkle_root, c,
                                     tampered->chunks[c].data,
                                     tampered->chunks[c].proof, cert_);
    if (c < plan_->n_data() - 1)
      EXPECT_EQ(result, EntryRebuilder::AddResult::kPending);
    else
      EXPECT_EQ(result, EntryRebuilder::AddResult::kBucketFake);
  }
  EXPECT_EQ(rebuilder.banned_count(), plan_->n_data());

  // Refills of the proven-fake root are refused in O(1) (DoS defense)...
  EXPECT_EQ(rebuilder.AddChunk(tampered->merkle_root, 0,
                               tampered->chunks[0].data,
                               tampered->chunks[0].proof, cert_),
            EntryRebuilder::AddResult::kDuplicate);
  // ...and so is a never-seen chunk id under that root: the ban needs no
  // proof verification or rebuild attempt.
  int parity = plan_->n_data();
  EXPECT_EQ(rebuilder.AddChunk(tampered->merkle_root, parity,
                               tampered->chunks[parity].data,
                               tampered->chunks[parity].proof, cert_),
            EntryRebuilder::AddResult::kDuplicate);

  // The genuine chunks with the SAME ids 0..n_data-1 are a different root
  // — a different candidate entry — and rebuild normally. (The pre-fix
  // global chunk-id ban returned kDuplicate here and lost the entry.)
  for (int c = 0; c < plan_->n_data(); ++c) {
    auto result = rebuilder.AddChunk(encoded_->merkle_root, c,
                                     encoded_->chunks[c].data,
                                     encoded_->chunks[c].proof, cert_);
    if (c < plan_->n_data() - 1)
      EXPECT_EQ(result, EntryRebuilder::AddResult::kPending);
    else
      EXPECT_EQ(result, EntryRebuilder::AddResult::kRebuilt);
  }
  ASSERT_TRUE(rebuilder.complete());
  EXPECT_EQ(rebuilder.entry()->digest(), entry_->digest());
}

TEST_F(RebuilderTest, RepeatedFakeRootsEachCostOneRebuildOnly) {
  // An attacker can force at most one failed rebuild per fresh fake root
  // (each needs n_data valid proofs under a new root); refills of an
  // already-banned root never reach verification.
  EntryRebuilder rebuilder = MakeRebuilder();
  for (int variant = 0; variant < 3; ++variant) {
    Bytes tampered_payload = entry_->Encoded();
    tampered_payload[8] ^= static_cast<uint8_t>(variant + 1);
    auto tampered = EncodeBytesForPlan(tampered_payload, *plan_);
    ASSERT_TRUE(tampered.ok());
    for (int c = 0; c < plan_->n_data(); ++c) {
      auto result = rebuilder.AddChunk(tampered->merkle_root, c,
                                       tampered->chunks[c].data,
                                       tampered->chunks[c].proof, cert_);
      if (c == plan_->n_data() - 1) {
        EXPECT_EQ(result, EntryRebuilder::AddResult::kBucketFake);
      }
    }
    // Every later touch of the banned root is O(1) kDuplicate.
    EXPECT_EQ(rebuilder.AddChunk(tampered->merkle_root, 0,
                                 tampered->chunks[0].data,
                                 tampered->chunks[0].proof, cert_),
              EntryRebuilder::AddResult::kDuplicate);
  }
  EXPECT_EQ(rebuilder.banned_count(), 3 * plan_->n_data());

  // The genuine entry still goes through after all that noise.
  for (int c = 0; c < plan_->n_data(); ++c)
    (void)rebuilder.AddChunk(encoded_->merkle_root, c,
                             encoded_->chunks[c].data,
                             encoded_->chunks[c].proof, cert_);
  ASSERT_TRUE(rebuilder.complete());
  EXPECT_EQ(rebuilder.entry()->digest(), entry_->digest());
}

TEST_F(RebuilderTest, ForgedCertificateDoesNotBanGenuineRoot) {
  // A Byzantine peer forwards genuine chunks with a certificate whose
  // signatures do not verify. That proves nothing about the chunks: the
  // bucket stays and the next chunk's genuine certificate completes it,
  // even when that chunk repeats one the bucket already holds.
  Certificate forged;
  forged.gid = 0;
  forged.digest = entry_->digest();
  const Bytes wrong_payload(32, 0x07);
  for (int i = 0; i < 3; ++i) {
    NodeId node{0, static_cast<uint16_t>(i)};
    forged.AddSignature(node.index, registry_.Sign(node, wrong_payload));
  }

  EntryRebuilder rebuilder = MakeRebuilder();
  for (int c = 0; c < plan_->n_data(); ++c) {
    EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, c,
                                 encoded_->chunks[c].data,
                                 encoded_->chunks[c].proof, forged),
              EntryRebuilder::AddResult::kPending);
  }
  EXPECT_FALSE(rebuilder.complete());
  EXPECT_EQ(rebuilder.banned_count(), 0);
  // Another forged certificate on a repeat changes nothing either.
  EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, 0,
                               encoded_->chunks[0].data,
                               encoded_->chunks[0].proof, forged),
            EntryRebuilder::AddResult::kDuplicate);
  EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, 0,
                               encoded_->chunks[0].data,
                               encoded_->chunks[0].proof, cert_),
            EntryRebuilder::AddResult::kRebuilt);
  ASSERT_TRUE(rebuilder.complete());
  EXPECT_EQ(rebuilder.entry()->digest(), entry_->digest());
}

TEST_F(RebuilderTest, ChunksAfterCompletionIgnored) {
  EntryRebuilder rebuilder = MakeRebuilder();
  for (int c = 0; c < plan_->n_data(); ++c)
    rebuilder.AddChunk(encoded_->merkle_root, c, encoded_->chunks[c].data,
                       encoded_->chunks[c].proof, cert_);
  ASSERT_TRUE(rebuilder.complete());
  EXPECT_EQ(rebuilder.AddChunk(encoded_->merkle_root, 20,
                               encoded_->chunks[20].data,
                               encoded_->chunks[20].proof, cert_),
            EntryRebuilder::AddResult::kDuplicate);
}

}  // namespace
}  // namespace massbft
