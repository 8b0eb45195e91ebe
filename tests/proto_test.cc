#include <gtest/gtest.h>

#include "crypto/signature.h"
#include "proto/entry.h"
#include "proto/messages.h"

namespace massbft {
namespace {

Transaction MakeTxn(uint64_t id, size_t payload_size = 100) {
  Transaction txn;
  txn.id = id;
  txn.client = static_cast<uint32_t>(id * 7);
  txn.submit_time = static_cast<SimTime>(id * 1000);
  txn.payload.assign(payload_size, static_cast<uint8_t>(id));
  return txn;
}

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction txn = MakeTxn(42, 201);
  BinaryWriter w;
  txn.EncodeTo(&w);
  BinaryReader r(w.buffer());
  auto decoded = Transaction::DecodeFrom(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, txn);
}

TEST(EntryTest, EncodeDecodeRoundTrip) {
  std::vector<Transaction> txns = {MakeTxn(1), MakeTxn(2), MakeTxn(3)};
  Entry entry(2, 17, txns);
  auto decoded = Entry::Decode(entry.Encoded());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->gid(), 2);
  EXPECT_EQ((*decoded)->seq(), 17u);
  EXPECT_EQ((*decoded)->txns(), txns);
  EXPECT_EQ((*decoded)->digest(), entry.digest());
}

TEST(EntryTest, EmptyEntryRoundTrips) {
  Entry entry(0, 0, {});
  auto decoded = Entry::Decode(entry.Encoded());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->num_txns(), 0);
}

TEST(EntryTest, DigestBindsContent) {
  Entry a(0, 1, {MakeTxn(1)});
  Entry b(0, 1, {MakeTxn(2)});
  Entry c(0, 2, {MakeTxn(1)});
  Entry d(1, 1, {MakeTxn(1)});
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_NE(a.digest(), d.digest());
}

TEST(EntryTest, TamperedBytesRejectedOrDifferentDigest) {
  Entry entry(1, 5, {MakeTxn(9)});
  Bytes tampered = entry.Encoded();
  tampered[tampered.size() / 2] ^= 0xFF;
  auto decoded = Entry::Decode(tampered);
  // Either structurally invalid, or decodes to a different digest — never
  // silently equal.
  if (decoded.ok()) {
    EXPECT_NE((*decoded)->digest(), entry.digest());
  }
}

TEST(EntryTest, TruncatedBytesRejected) {
  Entry entry(1, 5, {MakeTxn(9), MakeTxn(10)});
  Bytes truncated(entry.Encoded().begin(), entry.Encoded().end() - 5);
  EXPECT_FALSE(Entry::Decode(truncated).ok());
}

TEST(EntryTest, ByteSizeIsEncodedSize) {
  Entry entry(0, 3, {MakeTxn(1, 201), MakeTxn(2, 201)});
  EXPECT_EQ(entry.ByteSize(), entry.Encoded().size());
  // Two 201-byte payloads plus per-txn headers plus the entry header.
  EXPECT_GT(entry.ByteSize(), 2 * 201u);
  EXPECT_LT(entry.ByteSize(), 2 * 201u + 100u);
}

// ---------------------------------------------------------- Certificate

class CertificateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 7; ++i)
      registry_.RegisterNode(NodeId{1, static_cast<uint16_t>(i)});
  }

  Certificate MakeCert(const Digest& digest, int num_sigs) {
    Certificate cert;
    cert.gid = 1;
    cert.digest = digest;
    Bytes payload(digest.begin(), digest.end());
    for (int i = 0; i < num_sigs; ++i) {
      NodeId node{1, static_cast<uint16_t>(i)};
      cert.AddSignature(node.index, registry_.Sign(node, payload));
    }
    return cert;
  }

  KeyRegistry registry_;
  Digest digest_ = Sha256::Hash("entry payload");
};

TEST_F(CertificateTest, QuorumVerifies) {
  Certificate cert = MakeCert(digest_, 5);
  EXPECT_TRUE(cert.Verify(registry_, 5));
  EXPECT_TRUE(cert.Verify(registry_, 3));
}

TEST_F(CertificateTest, InsufficientSignaturesFail) {
  Certificate cert = MakeCert(digest_, 4);
  EXPECT_FALSE(cert.Verify(registry_, 5));
}

TEST_F(CertificateTest, DuplicateSignersNotDoubleCounted) {
  // The bitmap makes duplicate signers unrepresentable: re-adding an
  // index is a no-op, so a 3-signer cert can never inflate to a 5-quorum.
  Certificate cert = MakeCert(digest_, 3);
  Bytes payload(digest_.begin(), digest_.end());
  cert.AddSignature(0, registry_.Sign(NodeId{1, 0}, payload));
  cert.AddSignature(0, registry_.Sign(NodeId{1, 0}, payload));
  EXPECT_EQ(cert.NumSignatures(), 3u);
  EXPECT_FALSE(cert.Verify(registry_, 5));
}

TEST_F(CertificateTest, UnregisteredSignerDoesNotCount) {
  // Index 200 exists in no registry; its "signature" must not count
  // toward the quorum (and the batch path must fall back, not crash).
  Certificate cert = MakeCert(digest_, 4);
  cert.AddSignature(200, Signature{});
  EXPECT_EQ(cert.NumSignatures(), 5u);
  EXPECT_FALSE(cert.Verify(registry_, 5));
  EXPECT_TRUE(cert.Verify(registry_, 4));  // The 4 real ones still count.
}

TEST_F(CertificateTest, ForgedSignatureIsNamed) {
  Certificate cert = MakeCert(digest_, 5);
  Bytes payload(digest_.begin(), digest_.end());
  // Replace node 2's signature with node 6's (valid key, wrong signer).
  Certificate forged;
  forged.gid = cert.gid;
  forged.digest = cert.digest;
  for (uint16_t i = 0; i < 5; ++i) {
    NodeId signer{1, i == 2 ? static_cast<uint16_t>(6) : i};
    forged.AddSignature(i, registry_.Sign(signer, payload));
  }
  std::vector<uint16_t> forgers;
  EXPECT_TRUE(forged.Verify(registry_, 4, &forgers));
  EXPECT_EQ(forgers, std::vector<uint16_t>{2});
}

TEST_F(CertificateTest, WrongDigestSignaturesFail) {
  Certificate cert = MakeCert(digest_, 5);
  cert.digest = Sha256::Hash("different payload");
  EXPECT_FALSE(cert.Verify(registry_, 5));
}

TEST_F(CertificateTest, EncodeDecodeRoundTrip) {
  Certificate cert = MakeCert(digest_, 5);
  BinaryWriter w;
  cert.EncodeTo(&w);
  EXPECT_EQ(w.size(), cert.ByteSize());
  BinaryReader r(w.buffer());
  auto decoded = Certificate::DecodeFrom(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->gid, cert.gid);
  EXPECT_EQ(decoded->digest, cert.digest);
  ASSERT_EQ(decoded->NumSignatures(), cert.NumSignatures());
  EXPECT_EQ(*decoded, cert);
  EXPECT_TRUE(decoded->Verify(registry_, 5));
}

TEST_F(CertificateTest, CompactEncodingShrinksWireSize) {
  // 5 signers over a 7-node group: one bitmap byte + 5 * 64 sig bytes
  // versus the old 5 * (4 + 64) explicit pair list.
  Certificate cert = MakeCert(digest_, 5);
  EXPECT_EQ(cert.ByteSize(), 2u + 32u + 2u + 1u + 5u * sizeof(Signature));
  EXPECT_LT(cert.ByteSize(), 2u + 32u + 2u + 5u * (4u + 64u));
}

TEST_F(CertificateTest, NonCanonicalBitmapRejected) {
  Certificate cert = MakeCert(digest_, 2);
  BinaryWriter w;
  cert.EncodeTo(&w);
  // Splice a trailing zero bitmap byte in: same signer set, longer
  // encoding. Layout: gid(2) digest(32) bitmap_len(2) bitmap sigs.
  Bytes bytes = w.buffer();
  ASSERT_EQ(bytes[34], 1);  // bitmap_len lo byte
  bytes[34] = 2;
  bytes.insert(bytes.begin() + 37, 0);  // after the original bitmap byte
  BinaryReader r(bytes);
  EXPECT_FALSE(Certificate::DecodeFrom(&r).ok());
}

TEST_F(CertificateTest, MemoMatchesOnlyTheExactCertificate) {
  VerifiedCertMemo memo(2);
  int checks = 0;
  auto check = [&](const Certificate& c) {
    ++checks;
    return c.Verify(registry_, 5);
  };
  Certificate cert = MakeCert(digest_, 5);
  ASSERT_TRUE(memo.Verify(cert, check));
  ASSERT_TRUE(memo.Verify(cert, check));
  EXPECT_EQ(checks, 1);  // The second call is a hit.

  // One signature byte different: a miss, so it is checked in full.
  Certificate flipped;
  flipped.gid = cert.gid;
  flipped.digest = cert.digest;
  const std::vector<uint16_t> signers = cert.Signers();
  for (size_t i = 0; i < signers.size(); ++i) {
    Signature sig = cert.Signatures()[i];
    if (i == 3) sig[63] ^= 0x01;
    flipped.AddSignature(signers[i], sig);
  }
  EXPECT_FALSE(memo.Verify(flipped, check));
  EXPECT_FALSE(memo.Verify(flipped, check));  // Failures are never remembered.
  EXPECT_EQ(checks, 3);

  // Same signatures, one bitmap bit moved (signer 4 claimed as 5).
  Certificate moved;
  moved.gid = cert.gid;
  moved.digest = cert.digest;
  for (size_t i = 0; i < signers.size(); ++i)
    moved.AddSignature(signers[i] == 4 ? 5 : signers[i], cert.Signatures()[i]);
  EXPECT_FALSE(memo.Verify(moved, check));
  EXPECT_EQ(checks, 4);
  ASSERT_TRUE(memo.Verify(cert, check));
  EXPECT_EQ(checks, 4);

  // Bounded: the oldest certificate is evicted first.
  Certificate second = MakeCert(Sha256::Hash("second"), 5);
  Certificate third = MakeCert(Sha256::Hash("third"), 5);
  ASSERT_TRUE(memo.Verify(second, check));
  ASSERT_TRUE(memo.Verify(third, check));
  EXPECT_EQ(checks, 6);
  ASSERT_TRUE(memo.Verify(second, check));
  ASSERT_TRUE(memo.Verify(third, check));
  EXPECT_EQ(checks, 6);
  ASSERT_TRUE(memo.Verify(cert, check));  // Evicted: checked again.
  EXPECT_EQ(checks, 7);
}

// ---------------------------------------------------------- Message sizes

// ByteSize() must equal frame overhead plus the real encoded body (plus
// the wire trace context for entry-carrying types) — the encoder is the
// single source of truth for link accounting.
size_t EncodedSize(const ProtocolMessage& msg) {
  BinaryWriter w;
  msg.EncodeBodyTo(&w);
  return kFrameOverheadBytes +
         (CarriesTraceContext(msg.message_type()) ? kTraceContextBytes : 0) +
         w.size();
}

TEST(MessageSizeTest, EnvelopeAddedToEveryMessage) {
  ClientReplyMsg reply(1, true);
  EXPECT_EQ(reply.ByteSize(), kFrameOverheadBytes + 9);
  EXPECT_EQ(reply.ByteSize(), EncodedSize(reply));
  GroupHeartbeatMsg hb(1, 100);
  EXPECT_EQ(hb.ByteSize(), kFrameOverheadBytes + 10);
  EXPECT_EQ(hb.ByteSize(), EncodedSize(hb));
}

TEST(MessageSizeTest, EntryTransferCarriesEntryAndCert) {
  auto entry = std::make_shared<const Entry>(
      0, 1, std::vector<Transaction>{MakeTxn(1, 201)});
  Certificate cert;
  for (uint16_t i = 0; i < 5; ++i) cert.AddSignature(i, Signature{});
  EntryTransferMsg msg(entry, cert);
  // The entry rides as a length-prefixed blob of its canonical encoding;
  // entry-carrying frames also attach the wire trace context.
  EXPECT_EQ(msg.ByteSize(), kFrameOverheadBytes + kTraceContextBytes +
                                VarintSize(entry->ByteSize()) +
                                entry->ByteSize() + cert.ByteSize());
  EXPECT_EQ(msg.ByteSize(), EncodedSize(msg));
}

TEST(MessageSizeTest, ChunkBatchAccountsChunksProofsAndCert) {
  Chunk chunk;
  chunk.chunk_id = 3;
  chunk.data.assign(1000, 7);
  chunk.proof.index = 3;
  chunk.proof.leaf_count = 28;
  chunk.proof.path.resize(5);
  Certificate cert;
  for (uint16_t i = 0; i < 5; ++i) cert.AddSignature(i, Signature{});
  ChunkBatchMsg msg(0, 1, Digest{}, cert, {chunk}, 13000);
  size_t expected = kFrameOverheadBytes + kTraceContextBytes + 2 + 8 + 32 + 8 +
                    cert.ByteSize() + /*chunk count varint*/ 1 +
                    chunk.ByteSize();
  EXPECT_EQ(chunk.ByteSize(), 4 + 2 + 1000 + chunk.proof.ByteSize());
  EXPECT_EQ(msg.ByteSize(), expected);
  EXPECT_EQ(msg.ByteSize(), EncodedSize(msg));
}

TEST(MessageSizeTest, SignatureWireSizeMatchesEd25519) {
  // The substituted scheme must not change message sizes (DESIGN.md §2).
  PbftVoteMsg vote(MessageType::kPrepare, 0, 0, Digest{}, Signature{});
  EXPECT_EQ(vote.ByteSize(), kFrameOverheadBytes + 8 + 8 + 32 + 64);
  EXPECT_EQ(vote.ByteSize(), EncodedSize(vote));
}

TEST(MessageSizeTest, TimestampPiggybackCounted) {
  Certificate cert;
  RaftProposeMsg bare(0, 1, Digest{}, cert, {});
  RaftProposeMsg with_ts(0, 1, Digest{}, cert,
                         {TimestampElement{0, 1, 2, 3},
                          TimestampElement{1, 1, 2, 4}});
  EXPECT_EQ(with_ts.ByteSize(),
            bare.ByteSize() + 2 * TimestampElement::kByteSize);
}

}  // namespace
}  // namespace massbft
