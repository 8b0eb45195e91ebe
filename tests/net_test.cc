#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/buffer_pool.h"
#include "net/crc32.h"
#include "net/rx_ring.h"
#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "proto/messages.h"

namespace massbft {
namespace {

// ------------------------------------------------------------ Crc32

TEST(Crc32Test, KnownVectors) {
  // The standard CRC-32 check value.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32::Compute(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32::Compute(nullptr, 0), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Bytes data(1000);
  Rng rng(7);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  Crc32 crc;
  crc.Update(data.data(), 100);
  crc.Update(data.data() + 100, 1);
  crc.Update(data.data() + 101, data.size() - 101);
  EXPECT_EQ(crc.Finish(), Crc32::Compute(data.data(), data.size()));
}

// ---------------------------------------------------- Message factory

Signature RandSig(Rng& rng) {
  Signature sig;
  for (auto& b : sig) b = static_cast<uint8_t>(rng.NextU64());
  return sig;
}

Digest RandDigest(Rng& rng) {
  Digest d;
  for (auto& b : d) b = static_cast<uint8_t>(rng.NextU64());
  return d;
}

Transaction RandTxn(Rng& rng) {
  Transaction txn;
  txn.id = rng.NextU64();
  txn.client = static_cast<uint32_t>(rng.NextU64());
  txn.submit_time = static_cast<SimTime>(rng.NextBelow(1u << 30));
  txn.payload.resize(rng.NextBelow(200));
  for (auto& b : txn.payload) b = static_cast<uint8_t>(rng.NextU64());
  return txn;
}

EntryPtr RandEntry(Rng& rng) {
  std::vector<Transaction> txns;
  size_t n = rng.NextBelow(4);
  for (size_t i = 0; i < n; ++i) txns.push_back(RandTxn(rng));
  return std::make_shared<const Entry>(
      static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
      std::move(txns));
}

Certificate RandCert(Rng& rng) {
  Certificate cert;
  cert.gid = static_cast<uint16_t>(rng.NextBelow(8));
  cert.digest = RandDigest(rng);
  size_t n = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < n; ++i)
    cert.AddSignature(static_cast<uint16_t>(i), RandSig(rng));
  return cert;
}

DecisionId RandDecision(Rng& rng) {
  DecisionId d;
  d.kind = static_cast<uint8_t>(rng.NextBelow(4));
  d.voter_gid = static_cast<uint16_t>(rng.NextBelow(8));
  d.target_gid = static_cast<uint16_t>(rng.NextBelow(8));
  d.target_seq = rng.NextU64();
  d.ts = rng.NextU64();
  return d;
}

std::vector<TimestampElement> RandElements(Rng& rng) {
  std::vector<TimestampElement> elements;
  size_t n = 1 + rng.NextBelow(5);
  for (size_t i = 0; i < n; ++i)
    elements.push_back(TimestampElement{
        static_cast<uint16_t>(rng.NextBelow(8)),
        static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
        rng.NextU64()});
  return elements;
}

std::vector<Chunk> RandChunks(Rng& rng) {
  std::vector<Chunk> chunks;
  size_t n = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < n; ++i) {
    Chunk c;
    c.chunk_id = static_cast<uint32_t>(rng.NextU64());
    c.data.resize(1 + rng.NextBelow(64));
    for (auto& b : c.data) b = static_cast<uint8_t>(rng.NextU64());
    c.proof.index = static_cast<uint32_t>(i);
    c.proof.leaf_count = static_cast<uint32_t>(n);
    c.proof.path = {RandDigest(rng), RandDigest(rng)};
    chunks.push_back(std::move(c));
  }
  return chunks;
}

/// A randomized instance of every wire message kind.
std::unique_ptr<ProtocolMessage> MakeMessage(MessageType type, Rng& rng) {
  using T = MessageType;
  switch (type) {
    case T::kClientRequest:
      return std::make_unique<ClientRequestMsg>(RandTxn(rng));
    case T::kClientReply:
      return std::make_unique<ClientReplyMsg>(rng.NextU64(),
                                              rng.NextBelow(2) == 0);
    case T::kPrePrepare:
      return std::make_unique<PrePrepareMsg>(rng.NextU64(), rng.NextU64(),
                                             RandEntry(rng), RandSig(rng));
    case T::kPrepare:
    case T::kCommit:
      return std::make_unique<PbftVoteMsg>(type, rng.NextU64(), rng.NextU64(),
                                           RandDigest(rng), RandSig(rng));
    case T::kViewChange:
    case T::kNewView:
      return std::make_unique<ViewChangeMsg>(type, rng.NextU64(),
                                             rng.NextU64(),
                                             rng.NextBelow(300));
    case T::kCertifyRequest:
      return std::make_unique<CertifyRequestMsg>(RandDecision(rng),
                                                 RandSig(rng));
    case T::kCertifyVote:
      return std::make_unique<CertifyVoteMsg>(RandDecision(rng),
                                              RandSig(rng));
    case T::kEntryTransfer:
      return std::make_unique<EntryTransferMsg>(RandEntry(rng),
                                                RandCert(rng));
    case T::kChunkBatch:
      return std::make_unique<ChunkBatchMsg>(
          static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
          RandDigest(rng), RandCert(rng), RandChunks(rng),
          rng.NextBelow(1u << 20));
    case T::kRaftPropose:
      return std::make_unique<RaftProposeMsg>(
          static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
          RandDigest(rng), RandCert(rng), RandElements(rng),
          static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64());
    case T::kRaftAccept:
      return std::make_unique<RaftAcceptMsg>(
          static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
          static_cast<uint16_t>(rng.NextBelow(8)), RandCert(rng),
          rng.NextU64());
    case T::kRaftCommit:
      return std::make_unique<RaftCommitMsg>(
          static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
          RandCert(rng));
    case T::kTimestampAssign:
      return std::make_unique<TimestampAssignMsg>(RandElements(rng),
                                                  rng.NextBelow(2) == 0);
    case T::kGroupHeartbeat:
      return std::make_unique<GroupHeartbeatMsg>(
          static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64());
    case T::kGroupRelay: {
      std::vector<RelayEvent> events;
      size_t n = 1 + rng.NextBelow(4);
      for (size_t i = 0; i < n; ++i)
        events.push_back(RelayEvent{
            static_cast<uint8_t>(1 + rng.NextBelow(2)),
            static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
            static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64()});
      return std::make_unique<GroupRelayMsg>(std::move(events),
                                             rng.NextBelow(2) == 0);
    }
    case T::kEpochMarker:
      return std::make_unique<EpochMarkerMsg>(
          static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64(),
          rng.NextU64());
    case T::kLeaderForward:
      return std::make_unique<LeaderForwardMsg>(RandEntry(rng),
                                                RandCert(rng));
    case T::kCatchUpRequest: {
      std::vector<std::pair<uint16_t, uint64_t>> next;
      size_t n = 1 + rng.NextBelow(4);
      for (size_t i = 0; i < n; ++i)
        next.emplace_back(static_cast<uint16_t>(i), rng.NextU64());
      return std::make_unique<CatchUpRequestMsg>(std::move(next));
    }
    case T::kFreezeQuery:
    case T::kFreezeReport:
      return std::make_unique<FreezeMsg>(
          type, static_cast<uint16_t>(rng.NextBelow(8)), rng.NextU64());
    case T::kCatchUpDone:
      return std::make_unique<CatchUpDoneMsg>();
  }
  return nullptr;
}

constexpr MessageType kAllTypes[] = {
    MessageType::kClientRequest, MessageType::kClientReply,
    MessageType::kPrePrepare,    MessageType::kPrepare,
    MessageType::kCommit,        MessageType::kViewChange,
    MessageType::kNewView,       MessageType::kCertifyRequest,
    MessageType::kCertifyVote,   MessageType::kEntryTransfer,
    MessageType::kChunkBatch,    MessageType::kRaftPropose,
    MessageType::kRaftAccept,    MessageType::kRaftCommit,
    MessageType::kTimestampAssign, MessageType::kGroupHeartbeat,
    MessageType::kGroupRelay,    MessageType::kEpochMarker,
    MessageType::kLeaderForward, MessageType::kCatchUpRequest,
    MessageType::kFreezeQuery,   MessageType::kFreezeReport,
    MessageType::kCatchUpDone,
};

// ------------------------------------------------------------ Roundtrip

/// Every message kind survives encode -> decode -> re-encode with
/// byte-identical frames (which proves field-level equality without
/// per-field comparison), and ByteSize() equals the real frame size.
TEST(WireRoundTripTest, EveryMessageTypeRoundTrips) {
  Rng rng(42);
  const NodeId src{3, 7};
  for (MessageType type : kAllTypes) {
    for (int iteration = 0; iteration < 8; ++iteration) {
      auto msg = MakeMessage(type, rng);
      ASSERT_NE(msg, nullptr) << "no factory for type "
                              << static_cast<int>(type);
      // Fixed origin timestamp so the re-encode comparison below is
      // byte-exact (the default overload stamps TraceClock::NowNs()).
      Bytes wire = EncodeFrame(*msg, src, 777);
      EXPECT_EQ(wire.size(), msg->ByteSize())
          << "type " << static_cast<int>(type);

      auto peeked = PeekFrameLength(wire.data(), wire.size());
      ASSERT_TRUE(peeked.ok());
      EXPECT_EQ(*peeked, wire.size());

      auto frame = DecodeFrame(wire);
      ASSERT_TRUE(frame.ok()) << "type " << static_cast<int>(type) << ": "
                              << frame.status().ToString();
      EXPECT_EQ(frame->src, src);
      ASSERT_NE(frame->msg, nullptr);
      EXPECT_EQ(frame->msg->message_type(), type);

      EXPECT_EQ(frame->has_trace, CarriesTraceContext(type));

      Bytes rewire = EncodeFrame(*frame->msg, src, 777);
      EXPECT_EQ(rewire, wire) << "re-encode divergence for type "
                              << static_cast<int>(type);
    }
  }
}

TEST(WireRoundTripTest, FieldLevelSpotChecks) {
  Rng rng(1);
  const NodeId src{1, 2};
  {
    auto entry = RandEntry(rng);
    auto cert = RandCert(rng);
    EntryTransferMsg msg(entry, cert);
    auto frame = DecodeFrame(EncodeFrame(msg, src));
    ASSERT_TRUE(frame.ok());
    auto& decoded = static_cast<const EntryTransferMsg&>(*frame->msg);
    EXPECT_EQ(decoded.entry()->digest(), entry->digest());
    EXPECT_EQ(decoded.entry()->txns(), entry->txns());
    EXPECT_EQ(decoded.cert(), cert);
  }
  {
    auto elements = RandElements(rng);
    RaftProposeMsg msg(4, 99, RandDigest(rng), RandCert(rng), elements, 2, 55);
    auto frame = DecodeFrame(EncodeFrame(msg, src));
    ASSERT_TRUE(frame.ok());
    auto& decoded = static_cast<const RaftProposeMsg&>(*frame->msg);
    EXPECT_EQ(decoded.gid(), 4);
    EXPECT_EQ(decoded.seq(), 99u);
    EXPECT_EQ(decoded.piggyback(), elements);
    EXPECT_EQ(decoded.origin_gid(), 2);
    EXPECT_EQ(decoded.origin_seq(), 55u);
  }
  {
    auto chunks = RandChunks(rng);
    ChunkBatchMsg msg(1, 7, RandDigest(rng), RandCert(rng), chunks, 4096);
    auto frame = DecodeFrame(EncodeFrame(msg, src));
    ASSERT_TRUE(frame.ok());
    auto& decoded = static_cast<const ChunkBatchMsg&>(*frame->msg);
    ASSERT_EQ(decoded.chunks().size(), chunks.size());
    EXPECT_EQ(decoded.chunks()[0].data, chunks[0].data);
    EXPECT_EQ(decoded.chunks()[0].proof.path, chunks[0].proof.path);
    EXPECT_EQ(decoded.entry_size(), 4096u);
  }
}

// ------------------------------------------------------------ Malformed

Bytes SampleFrame() {
  ClientReplyMsg msg(12345, true);
  return EncodeFrame(msg, NodeId{0, 1});
}

/// Recomputes the CRC after tampering with header/body bytes so tests hit
/// the check they target instead of tripping the CRC first.
void FixCrc(Bytes& wire) {
  Crc32 crc;
  crc.Update(wire.data() + 4, kFrameHeaderBytes - 8);  // version..body_len
  crc.Update(wire.data() + kFrameHeaderBytes,
             wire.size() - kFrameHeaderBytes);
  uint32_t value = crc.Finish();
  for (int i = 0; i < 4; ++i)
    wire[kFrameHeaderBytes - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(value >> (8 * i));
}

// ------------------------------------------------------- Trace context

TEST(WireTraceContextTest, EntryCarryingFrameRoundTripsContext) {
  auto entry = std::make_shared<const Entry>(3, 42, std::vector<Transaction>{});
  Certificate cert;
  EntryTransferMsg msg(entry, cert);
  const NodeId src{3, 5};
  auto frame = DecodeFrame(EncodeFrame(msg, src, 123456789));
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_trace);
  EXPECT_EQ(frame->trace.gid, 3);
  EXPECT_EQ(frame->trace.seq, 42u);
  EXPECT_EQ(frame->trace.origin, src.Packed());
  EXPECT_EQ(frame->trace.origin_ts_ns, 123456789u);
}

TEST(WireTraceContextTest, NonCarryingFrameHasNoContext) {
  ClientReplyMsg msg(7, true);
  auto frame = DecodeFrame(EncodeFrame(msg, NodeId{0, 1}));
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(frame->has_trace);
}

TEST(WireTraceContextTest, DefaultEncodeStampsTraceClock) {
  // The convenience overload stamps TraceClock::NowNs(): two encodes of
  // the same message must carry non-decreasing origin timestamps.
  auto entry = std::make_shared<const Entry>(1, 9, std::vector<Transaction>{});
  EntryTransferMsg msg(entry, Certificate{});
  auto first = DecodeFrame(EncodeFrame(msg, NodeId{1, 0}));
  auto second = DecodeFrame(EncodeFrame(msg, NodeId{1, 0}));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_LE(first->trace.origin_ts_ns, second->trace.origin_ts_ns);
}

TEST(WireTraceContextTest, FlagMismatchingTypeIsRejected) {
  // Strip the flag from an entry-carrying frame: decode must refuse, or
  // sim/real byte accounting could silently diverge.
  auto entry = std::make_shared<const Entry>(0, 1, std::vector<Transaction>{});
  EntryTransferMsg msg(entry, Certificate{});
  Bytes wire = EncodeFrame(msg, NodeId{0, 0}, 1);
  wire[6] = 0;  // flags byte
  // Splice out the 22-byte context so the frame is self-consistent again.
  wire.erase(wire.begin() + static_cast<ptrdiff_t>(kFrameHeaderBytes),
             wire.begin() +
                 static_cast<ptrdiff_t>(kFrameHeaderBytes + kTraceContextBytes));
  FixCrc(wire);
  auto frame = DecodeFrame(wire);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
}

TEST(WireMalformedTest, TruncatedAtEveryLengthIsRejected) {
  Bytes wire = SampleFrame();
  for (size_t len = 0; len < wire.size(); ++len) {
    auto frame = DecodeFrame(wire.data(), len);
    EXPECT_FALSE(frame.ok()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(WireMalformedTest, TrailingBytesAreRejected) {
  Bytes wire = SampleFrame();
  wire.push_back(0);
  EXPECT_FALSE(DecodeFrame(wire).ok());
}

TEST(WireMalformedTest, BadMagicIsRejected) {
  Bytes wire = SampleFrame();
  wire[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrame(wire).ok());
  EXPECT_FALSE(PeekFrameLength(wire.data(), wire.size()).ok());
}

TEST(WireMalformedTest, BadVersionIsRejected) {
  Bytes wire = SampleFrame();
  wire[4] = kWireVersion + 1;
  FixCrc(wire);
  EXPECT_FALSE(DecodeFrame(wire).ok());
  EXPECT_FALSE(PeekFrameLength(wire.data(), wire.size()).ok());
}

TEST(WireMalformedTest, WrongCrcIsRejected) {
  Bytes wire = SampleFrame();
  wire[kFrameHeaderBytes - 4] ^= 0x01;  // CRC field itself.
  EXPECT_FALSE(DecodeFrame(wire).ok());
  wire = SampleFrame();
  wire.back() ^= 0x01;  // Body byte.
  auto frame = DecodeFrame(wire);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
}

TEST(WireMalformedTest, UnknownTypeIsRejectedNotCrashed) {
  Bytes wire = SampleFrame();
  wire[5] = 99;  // No such MessageType.
  FixCrc(wire);
  auto frame = DecodeFrame(wire);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
}

TEST(WireMalformedTest, OversizedBodyLengthIsRejected) {
  Bytes wire = SampleFrame();
  uint32_t huge = kMaxBodyBytes + 1;
  for (int i = 0; i < 4; ++i)
    wire[11 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(huge >> (8 * i));
  EXPECT_FALSE(PeekFrameLength(wire.data(), wire.size()).ok());
  EXPECT_FALSE(DecodeFrame(wire).ok());
}

TEST(WireMalformedTest, ImplausibleElementCountIsRejected) {
  // A GroupRelay body claiming 2^28 events in a 12-byte frame must fail
  // the plausibility check, not attempt a giant allocation.
  BinaryWriter body;
  body.PutVarint(1u << 28);
  GroupRelayMsg sample({}, false);
  Bytes wire = EncodeFrame(sample, NodeId{0, 0});
  wire.resize(kFrameHeaderBytes);
  wire.insert(wire.end(), body.buffer().begin(), body.buffer().end());
  uint32_t body_len = static_cast<uint32_t>(body.size());
  for (int i = 0; i < 4; ++i)
    wire[11 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(body_len >> (8 * i));
  FixCrc(wire);
  auto frame = DecodeFrame(wire);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsCorruption());
}

/// Fuzz-ish: random corruption of one byte anywhere in the frame must
/// yield an error or a well-formed decode — never a crash.
TEST(WireMalformedTest, SingleByteCorruptionNeverCrashes) {
  Rng rng(9);
  for (MessageType type : kAllTypes) {
    auto msg = MakeMessage(type, rng);
    Bytes wire = EncodeFrame(*msg, NodeId{1, 1});
    for (int trial = 0; trial < 32; ++trial) {
      Bytes corrupt = wire;
      corrupt[rng.NextBelow(corrupt.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBelow(255));
      auto frame = DecodeFrame(corrupt);  // Must not crash.
      if (frame.ok()) {
        EXPECT_NE(frame->msg, nullptr);
      }
    }
  }
}

// ------------------------------------------------------------ Transports

/// Collects delivered frames with a latch the test can wait on.
struct Sink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Frame> frames;

  Transport::DeliverFn fn() {
    return [this](Frame f) {
      std::lock_guard<std::mutex> lock(mu);
      frames.push_back(std::move(f));
      cv.notify_all();
    };
  }
  bool WaitForCount(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return frames.size() >= n; });
  }
};

TEST(InProcTransportTest, DeliversThroughFullCodec) {
  InProcHub hub;
  auto a = hub.CreateTransport(NodeId{0, 0});
  auto b = hub.CreateTransport(NodeId{0, 1});
  Sink sink_a, sink_b;
  ASSERT_TRUE(a->Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b.fn()).ok());

  GroupHeartbeatMsg msg(2, 77);
  ASSERT_TRUE(a->Send(NodeId{0, 1}, msg).ok());
  ASSERT_TRUE(sink_b.WaitForCount(1));
  EXPECT_EQ(sink_b.frames[0].src, (NodeId{0, 0}));
  auto& decoded =
      static_cast<const GroupHeartbeatMsg&>(*sink_b.frames[0].msg);
  EXPECT_EQ(decoded.gid(), 2);
  EXPECT_EQ(decoded.last_seq(), 77u);

  EXPECT_EQ(a->stats().frames_sent, 1u);
  EXPECT_EQ(a->stats().bytes_sent, msg.ByteSize());
  EXPECT_EQ(b->stats().frames_received, 1u);

  // Unknown destination is a local error, counted, not a crash.
  EXPECT_FALSE(a->Send(NodeId{9, 9}, msg).ok());
  EXPECT_EQ(a->stats().send_errors, 1u);

  b->Stop();
  EXPECT_FALSE(a->Send(NodeId{0, 1}, msg).ok());  // Deregistered.
  a->Stop();
  a->Stop();  // Idempotent.
}

TcpPortMap MustMakePortMap(const std::vector<int>& group_sizes,
                           uint16_t base) {
  auto ports = MakeLocalPortMap(group_sizes, base);
  EXPECT_TRUE(ports.ok()) << ports.status().ToString();
  return *ports;
}

TEST(TcpTransportTest, LoopbackRoundTrip) {
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19321);
  TcpTransport a(NodeId{0, 0}, ports);
  TcpTransport b(NodeId{0, 1}, ports);
  Sink sink_a, sink_b;
  ASSERT_TRUE(a.Start(sink_a.fn()).ok());
  ASSERT_TRUE(b.Start(sink_b.fn()).ok());

  // Both directions, including a large frame spanning multiple reads.
  Rng rng(3);
  auto big = MakeMessage(MessageType::kEntryTransfer, rng);
  GroupHeartbeatMsg small(1, 5);
  ASSERT_TRUE(a.Send(NodeId{0, 1}, *big).ok());
  ASSERT_TRUE(a.Send(NodeId{0, 1}, small).ok());
  ASSERT_TRUE(b.Send(NodeId{0, 0}, small).ok());

  ASSERT_TRUE(sink_b.WaitForCount(2));
  ASSERT_TRUE(sink_a.WaitForCount(1));
  EXPECT_EQ(sink_b.frames[0].msg->message_type(),
            MessageType::kEntryTransfer);
  EXPECT_EQ(sink_b.frames[1].msg->message_type(),
            MessageType::kGroupHeartbeat);
  EXPECT_EQ(sink_a.frames[0].src, (NodeId{0, 1}));

  EXPECT_EQ(a.stats().frames_sent, 2u);
  EXPECT_EQ(b.stats().frames_received, 2u);
  a.Stop();
  b.Stop();
}

TEST(TcpTransportTest, SendToUnmappedNodeFails) {
  TcpPortMap ports = MustMakePortMap({1}, /*base=*/19331);
  TcpTransport a(NodeId{0, 0}, ports);
  Sink sink;
  ASSERT_TRUE(a.Start(sink.fn()).ok());
  GroupHeartbeatMsg msg(0, 0);
  EXPECT_FALSE(a.Send(NodeId{5, 5}, msg).ok());
  EXPECT_EQ(a.stats().send_errors, 1u);
  a.Stop();
}

TEST(TcpTransportTest, PortMapRejectsOverflowPast65535) {
  // 65534 + 2 nodes = ports {65534, 65535}: the last legal assignment.
  EXPECT_TRUE(MakeLocalPortMap({2}, 65534).ok());
  // One node more would need port 65536.
  auto overflow = MakeLocalPortMap({3}, 65534);
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsInvalidArgument());
  // The old uint16_t arithmetic silently wrapped a large cluster onto
  // low ports; now it is refused outright.
  EXPECT_FALSE(MakeLocalPortMap({200, 200}, 65400).ok());
  EXPECT_FALSE(MakeLocalPortMap({-1}, 1000).ok());
  // Empty map is fine.
  EXPECT_TRUE(MakeLocalPortMap({}, 65535).ok());
}

TEST(TcpTransportTest, SendToDeadPeerNeverBlocks) {
  // Node {0,1} is mapped but never started: every send must enqueue (or
  // drop) and return immediately — the old transport dialed synchronously
  // with retries and blocked the caller for ~2 seconds.
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19441);
  TcpTransport a(NodeId{0, 0}, ports);
  Sink sink;
  ASSERT_TRUE(a.Start(sink.fn()).ok());

  GroupHeartbeatMsg msg(1, 1);
  for (int i = 0; i < 50; ++i) {
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(a.Send(NodeId{0, 1}, msg).ok());
    auto elapsed = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    // The 10ms liveness budget, with CI scheduling headroom.
    EXPECT_LT(elapsed, 100.0) << "send " << i << " blocked";
  }
  EXPECT_EQ(a.stats().frames_sent, 0u);  // Nothing reached a wire.
  a.Stop();
}

TEST(TcpTransportTest, BackpressureDropsWhenQueueFull) {
  TcpTransport::Options options;
  options.max_queue_frames = 4;
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19451);
  TcpTransport a(NodeId{0, 0}, ports, options);
  Sink sink;
  ASSERT_TRUE(a.Start(sink.fn()).ok());

  GroupHeartbeatMsg msg(1, 1);
  int dropped = 0;
  for (int i = 0; i < 20; ++i)
    if (!a.Send(NodeId{0, 1}, msg).ok()) ++dropped;
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(a.stats().dropped_backpressure, static_cast<uint64_t>(dropped));
  // Backpressure is not a send error; the counters are distinct.
  EXPECT_EQ(a.stats().send_errors, 0u);
  a.Stop();
}

TEST(TcpTransportTest, ReconnectsAfterPeerRestart) {
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19461);
  TcpTransport a(NodeId{0, 0}, ports);
  auto b = std::make_unique<TcpTransport>(NodeId{0, 1}, ports);
  Sink sink_a, sink_b1;
  ASSERT_TRUE(a.Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b1.fn()).ok());

  GroupHeartbeatMsg msg(7, 1);
  ASSERT_TRUE(a.Send(NodeId{0, 1}, msg).ok());
  ASSERT_TRUE(sink_b1.WaitForCount(1));

  // Kill the peer. Sends during the outage enqueue (or die with the
  // connection — TCP loss semantics) but never block the caller.
  b->Stop();
  b.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(a.Send(NodeId{0, 1}, msg).ok());

  // Restart on the same port. Fresh sends force the writer to discover
  // the dead connection, redial with backoff, and flow frames again —
  // that is the liveness contract (loss of in-flight frames is allowed;
  // the BFT layer owns retries).
  b = std::make_unique<TcpTransport>(NodeId{0, 1}, ports);
  Sink sink_b2;
  ASSERT_TRUE(b->Start(sink_b2.fn()).ok());
  bool delivered = false;
  for (int i = 0; i < 200 && !delivered; ++i) {
    ASSERT_TRUE(a.Send(NodeId{0, 1}, msg).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::lock_guard<std::mutex> lock(sink_b2.mu);
    delivered = !sink_b2.frames.empty();
  }
  EXPECT_TRUE(delivered) << "no frame flowed after peer restart";
  EXPECT_GE(a.stats().reconnects, 1u);
  a.Stop();
  b->Stop();
}

// ------------------------------------------------------- Fault injection

std::unique_ptr<FaultInjectingTransport> Inject(InProcHub& hub, NodeId self,
                                                FaultSpec spec) {
  return std::make_unique<FaultInjectingTransport>(hub.CreateTransport(self),
                                                   spec);
}

TEST(FaultTransportTest, DropRateOneDropsEverything) {
  InProcHub hub;
  FaultSpec spec;
  spec.drop_rate = 1.0;
  auto a = Inject(hub, NodeId{0, 0}, spec);
  auto b = hub.CreateTransport(NodeId{0, 1});
  Sink sink_a, sink_b;
  ASSERT_TRUE(a->Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b.fn()).ok());

  GroupHeartbeatMsg msg(1, 1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(a->Send(NodeId{0, 1}, msg).ok());
  EXPECT_EQ(a->fault_stats().dropped, 10u);
  EXPECT_EQ(b->stats().frames_received, 0u);
  EXPECT_EQ(a->stats().frames_sent, 0u);  // Dropped before the inner send.
  a->Stop();
  b->Stop();
}

TEST(FaultTransportTest, DuplicateRateOneDeliversTwice) {
  InProcHub hub;
  FaultSpec spec;
  spec.duplicate_rate = 1.0;
  auto a = Inject(hub, NodeId{0, 0}, spec);
  auto b = hub.CreateTransport(NodeId{0, 1});
  Sink sink_a, sink_b;
  ASSERT_TRUE(a->Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b.fn()).ok());

  GroupHeartbeatMsg msg(1, 1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(a->Send(NodeId{0, 1}, msg).ok());
  EXPECT_EQ(a->fault_stats().duplicated, 5u);
  EXPECT_EQ(b->stats().frames_received, 10u);
  a->Stop();
  b->Stop();
}

TEST(FaultTransportTest, CorruptionIsCaughtByReceiverCrc) {
  InProcHub hub;
  FaultSpec spec;
  spec.corrupt_rate = 1.0;
  auto a = Inject(hub, NodeId{0, 0}, spec);
  auto b = hub.CreateTransport(NodeId{0, 1});
  Sink sink_a, sink_b;
  ASSERT_TRUE(a->Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b.fn()).ok());

  GroupHeartbeatMsg msg(1, 1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(a->Send(NodeId{0, 1}, msg).ok());
  // Real mangled bytes went on the wire; the receiver's codec rejected
  // every frame (one flipped byte always breaks the CRC or the header).
  EXPECT_EQ(a->fault_stats().corrupted, 10u);
  EXPECT_EQ(b->stats().decode_errors, 10u);
  EXPECT_EQ(b->stats().frames_received, 0u);
  EXPECT_TRUE(sink_b.frames.empty());
  a->Stop();
  b->Stop();
}

TEST(FaultTransportTest, DelayedFramesArriveLater) {
  InProcHub hub;
  FaultSpec spec;
  spec.delay_rate = 1.0;
  spec.delay_min_ms = 5.0;
  spec.delay_max_ms = 15.0;
  auto a = Inject(hub, NodeId{0, 0}, spec);
  auto b = hub.CreateTransport(NodeId{0, 1});
  Sink sink_a, sink_b;
  ASSERT_TRUE(a->Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b.fn()).ok());

  GroupHeartbeatMsg msg(1, 1);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(a->Send(NodeId{0, 1}, msg).ok());
  // Sends return before delivery (they only scheduled the frames).
  EXPECT_EQ(a->fault_stats().delayed, 4u);
  ASSERT_TRUE(sink_b.WaitForCount(4));
  auto elapsed = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GE(elapsed, 5.0);  // At least the minimum delay.
  a->Stop();
  b->Stop();
}

TEST(FaultTransportTest, DelayStallsTheLinkButNeverReordersIt) {
  // The VTS ordering engine infers lower bounds from the assumption that
  // each channel delivers stamps in non-decreasing order — real TCP's
  // per-connection FIFO. The injector must honor it: a delayed frame
  // stalls later frames on the same link instead of being overtaken.
  InProcHub hub;
  FaultSpec spec;
  spec.seed = 1234;
  spec.delay_rate = 0.5;
  spec.delay_min_ms = 1.0;
  spec.delay_max_ms = 20.0;
  auto a = Inject(hub, NodeId{0, 0}, spec);
  auto b = hub.CreateTransport(NodeId{0, 1});
  Sink sink_a, sink_b;
  ASSERT_TRUE(a->Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b.fn()).ok());

  constexpr uint64_t kFrames = 50;
  for (uint64_t i = 0; i < kFrames; ++i) {
    GroupHeartbeatMsg msg(0, /*last_seq=*/i);
    EXPECT_TRUE(a->Send(NodeId{0, 1}, msg).ok());
  }
  ASSERT_TRUE(sink_b.WaitForCount(kFrames));
  EXPECT_GT(a->fault_stats().delayed, 0u);
  std::lock_guard<std::mutex> lock(sink_b.mu);
  for (uint64_t i = 0; i < kFrames; ++i) {
    auto* hb = static_cast<GroupHeartbeatMsg*>(sink_b.frames[i].msg.get());
    EXPECT_EQ(hb->last_seq(), i) << "frame overtook a delayed predecessor";
  }
  a->Stop();
  b->Stop();
}

TEST(FaultTransportTest, PartitionWindowCutsBothDirectionsThenHeals) {
  InProcHub hub;
  FaultSpec spec;
  FaultSpec::Partition partition;
  partition.start_s = 0;
  partition.end_s = 0.25;
  partition.side_a = {0};  // Group 0 vs everyone else.
  spec.partitions.push_back(partition);

  auto a = Inject(hub, NodeId{0, 0}, spec);  // Group 0.
  auto b = Inject(hub, NodeId{1, 0}, spec);  // Group 1.
  Sink sink_a, sink_b;
  ASSERT_TRUE(a->Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b.fn()).ok());

  GroupHeartbeatMsg msg(1, 1);
  EXPECT_TRUE(a->Send(NodeId{1, 0}, msg).ok());
  EXPECT_TRUE(b->Send(NodeId{0, 0}, msg).ok());
  EXPECT_EQ(a->fault_stats().partition_dropped +
                b->fault_stats().partition_dropped,
            2u);
  EXPECT_TRUE(sink_a.frames.empty());
  EXPECT_TRUE(sink_b.frames.empty());

  // After the window the same sends go through (the partition healed).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(a->Send(NodeId{1, 0}, msg).ok());
  EXPECT_TRUE(b->Send(NodeId{0, 0}, msg).ok());
  ASSERT_TRUE(sink_a.WaitForCount(1));
  ASSERT_TRUE(sink_b.WaitForCount(1));
  a->Stop();
  b->Stop();
}

TEST(FaultTransportTest, SameSeedSameMessageSequenceSameFaults) {
  FaultSpec spec;
  spec.seed = 12345;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.2;
  spec.corrupt_rate = 0.2;
  GroupHeartbeatMsg msg(1, 1);

  auto run = [&] {
    InProcHub hub;
    auto a = Inject(hub, NodeId{0, 0}, spec);
    auto b = hub.CreateTransport(NodeId{0, 1});
    Sink sink_a, sink_b;
    EXPECT_TRUE(a->Start(sink_a.fn()).ok());
    EXPECT_TRUE(b->Start(sink_b.fn()).ok());
    for (int i = 0; i < 200; ++i) (void)a->Send(NodeId{0, 1}, msg);
    FaultStats stats = a->fault_stats();
    a->Stop();
    b->Stop();
    return stats;
  };

  FaultStats first = run();
  FaultStats second = run();
  EXPECT_GT(first.total(), 0u);
  EXPECT_EQ(first.dropped, second.dropped);
  EXPECT_EQ(first.duplicated, second.duplicated);
  EXPECT_EQ(first.corrupted, second.corrupted);
  EXPECT_EQ(first.delayed, second.delayed);
}

// ----------------------------------------------------- crc32 kernels

/// Property test for the crc32 kernel family: the slice-by-8 production
/// kernel must agree with the byte-at-a-time scalar oracle on random
/// buffers, lengths and running states.
TEST(Crc32KernelTest, FastKernelsMatchScalarOracle) {
  Rng rng(0xC4C32);
  for (int trial = 0; trial < 500; ++trial) {
    // Cover the interesting length regimes: empty, sub-8-byte tails,
    // whole 8-byte steps with and without a tail, and multi-block bulk.
    const size_t len = trial < 80 ? trial : rng.NextBelow(4096);
    Bytes buf(len);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
    const uint32_t state = static_cast<uint32_t>(rng.NextU64());

    const uint32_t oracle =
        internal_crc32::UpdateScalarTable(state, buf.data(), len);
    EXPECT_EQ(internal_crc32::UpdateSlice8(state, buf.data(), len), oracle)
        << "slice8 diverged from scalar oracle at len " << len;
  }
}

/// Crc32::Update must be split-invariant: chopping one buffer into
/// arbitrary incremental Update calls lands on the same digest as the
/// scalar oracle one-shot.
TEST(Crc32KernelTest, DispatchedIncrementalMatchesScalarOracle) {
  Rng rng(0xD15);
  for (int trial = 0; trial < 100; ++trial) {
    Bytes buf(1 + rng.NextBelow(2048));
    for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
    Crc32 crc;
    size_t pos = 0;
    while (pos < buf.size()) {
      const size_t take =
          std::min(buf.size() - pos, 1 + rng.NextBelow(130));
      crc.Update(buf.data() + pos, take);
      pos += take;
    }
    const uint32_t expected = ~internal_crc32::UpdateScalarTable(
        0xFFFFFFFFu, buf.data(), buf.size());
    EXPECT_EQ(crc.Finish(), expected);
    EXPECT_EQ(Crc32::Compute(buf), expected);
  }
}

// ------------------------------------------------- EncodeFrameInto

/// The single-pass pooled encoder must produce byte-identical frames to
/// the classic EncodeFrame for every message type, and must fully reset a
/// recycled buffer (stale capacity, stale contents) before encoding.
TEST(WireEncodeIntoTest, MatchesEncodeFrameForEveryType) {
  Rng rng(11);
  Bytes reused;  // Deliberately reused across types, like a pooled buffer.
  reused.assign(333, 0xEE);
  for (MessageType type : kAllTypes) {
    auto msg = MakeMessage(type, rng);
    const Bytes classic = EncodeFrame(*msg, NodeId{2, 4}, 1234567);
    EncodeFrameInto(*msg, NodeId{2, 4}, 1234567, &reused);
    EXPECT_EQ(reused, classic) << "type " << static_cast<int>(type);
  }
}

// ---------------------------------------------------- FrameReassembler

/// Splitting a frame stream at every possible boundary — one byte per
/// recv — must reassemble the exact frame sequence. This is the
/// adversarial-fragmentation contract of the rx ring (DESIGN.md §15).
TEST(FrameReassemblerTest, OneByteTrickleReassemblesEveryType) {
  Rng rng(21);
  Bytes stream;
  std::vector<MessageType> order;
  for (MessageType type : kAllTypes) {
    auto msg = MakeMessage(type, rng);
    const Bytes wire = EncodeFrame(*msg, NodeId{1, 2});
    stream.insert(stream.end(), wire.begin(), wire.end());
    order.push_back(type);
  }

  FrameReassembler rx(/*initial_capacity=*/7);  // Force regrowth too.
  std::vector<Frame> frames;
  for (uint8_t byte : stream) {
    *rx.WritableData(1) = byte;
    rx.CommitWrite(1);
    ASSERT_TRUE(rx.Drain(&frames).ok());
  }
  ASSERT_EQ(frames.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(frames[i].msg->message_type(), order[i]) << "frame " << i;
  EXPECT_EQ(rx.PendingBytes(), 0u);
}

TEST(FrameReassemblerTest, RandomFragmentationFuzz) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes stream;
    size_t expected = 0;
    for (int i = 0; i < 40; ++i) {
      auto msg = MakeMessage(
          kAllTypes[rng.NextBelow(std::size(kAllTypes))], rng);
      const Bytes wire = EncodeFrame(*msg, NodeId{0, 1});
      stream.insert(stream.end(), wire.begin(), wire.end());
      ++expected;
    }
    FrameReassembler rx;
    std::vector<Frame> frames;
    size_t pos = 0;
    while (pos < stream.size()) {
      const size_t take =
          std::min(stream.size() - pos, 1 + rng.NextBelow(977));
      std::memcpy(rx.WritableData(take), stream.data() + pos, take);
      rx.CommitWrite(take);
      pos += take;
      ASSERT_TRUE(rx.Drain(&frames).ok());
    }
    EXPECT_EQ(frames.size(), expected);
    EXPECT_EQ(rx.PendingBytes(), 0u);
  }
}

/// A corrupt frame mid-stream surfaces as Corruption, but the good frames
/// decoded before it are still handed out — the transport delivers them
/// before tearing the connection down.
TEST(FrameReassemblerTest, CorruptionAfterGoodFramesKeepsThePrefix) {
  Rng rng(41);
  GroupHeartbeatMsg msg(3, 9);
  Bytes stream;
  for (int i = 0; i < 2; ++i) {
    const Bytes wire = EncodeFrame(msg, NodeId{0, 0});
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  Bytes bad = EncodeFrame(msg, NodeId{0, 0});
  bad[0] ^= 0xFF;  // Break the magic: framing is unrecoverable.
  stream.insert(stream.end(), bad.begin(), bad.end());

  FrameReassembler rx;
  std::memcpy(rx.WritableData(stream.size()), stream.data(), stream.size());
  rx.CommitWrite(stream.size());
  std::vector<Frame> frames;
  const Status drained = rx.Drain(&frames);
  EXPECT_TRUE(drained.IsCorruption());
  EXPECT_EQ(frames.size(), 2u);
}

// -------------------------------------------------------- BufferPool

TEST(BufferPoolTest, ReuseAccountingAndPoisonOnRecycle) {
  BufferPool::Options options;
  options.poison = true;
  BufferPool pool(options);

  Bytes first = pool.Acquire();
  first.assign(64, 0x5A);
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().outstanding, 1u);
  // Vector moves preserve the data pointer, so this stays valid while the
  // buffer sits in the free list — letting us observe that Release
  // overwrote every stale frame byte. A use-after-release thus reads 0xDB
  // garbage instead of a silently recycled frame.
  const uint8_t* mem = first.data();
  pool.Release(std::move(first));
  EXPECT_EQ(pool.stats().outstanding, 0u);
  for (size_t i = 0; i < 64; ++i)
    ASSERT_EQ(mem[i], BufferPool::kPoisonByte) << "unpoisoned byte " << i;

  // The recycled buffer comes back empty but with its old capacity.
  Bytes second = pool.Acquire();
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_TRUE(second.empty());
  EXPECT_GE(second.capacity(), 64u);
  pool.Release(std::move(second));

  // Batch release keeps the same accounting as singles.
  std::vector<Bytes> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(pool.Acquire());
  EXPECT_EQ(pool.stats().outstanding, 4u);
  pool.ReleaseAll(&batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(BufferPoolTest, OversizeBuffersAreNotRetained) {
  BufferPool::Options options;
  options.max_retained_capacity = 1024;
  BufferPool pool(options);
  Bytes big = pool.Acquire();
  big.reserve(4096);
  pool.Release(std::move(big));
  EXPECT_EQ(pool.stats().discarded, 1u);
  // The next acquire cannot be served by the discarded slab.
  Bytes next = pool.Acquire();
  EXPECT_EQ(pool.stats().allocations, 2u);
  pool.Release(std::move(next));
}

/// The zero-alloc-per-frame contract of the pooled send path: once the
/// pool is warm, a burst of sends must not allocate at all. The in-proc
/// transport makes this deterministic (encode -> route -> release is
/// synchronous on the caller's thread).
TEST(InProcTransportTest, SteadyStateSendsMakeZeroPoolAllocations) {
  InProcHub hub;
  auto a = hub.CreateTransport(NodeId{0, 0});
  auto b = hub.CreateTransport(NodeId{0, 1});
  Sink sink_a, sink_b;
  ASSERT_TRUE(a->Start(sink_a.fn()).ok());
  ASSERT_TRUE(b->Start(sink_b.fn()).ok());

  GroupHeartbeatMsg msg(1, 42);
  for (int i = 0; i < 16; ++i)  // Warm the pool.
    ASSERT_TRUE(a->Send(NodeId{0, 1}, msg).ok());

  const BufferPool::Stats warm = WireBufferPool().stats();
  for (int i = 0; i < 500; ++i)
    ASSERT_TRUE(a->Send(NodeId{0, 1}, msg).ok());
  const BufferPool::Stats after = WireBufferPool().stats();

  EXPECT_EQ(after.allocations - warm.allocations, 0u)
      << "steady-state sends allocated";
  EXPECT_EQ(after.reuses - warm.reuses, 500u);
  ASSERT_TRUE(sink_b.WaitForCount(516));
  a->Stop();
  b->Stop();
}

// ------------------------------------------- Batched TCP wire path

/// Floods of small frames exercise the scatter-gather writer's full-batch
/// and partial-batch resume paths; per-peer delivery order must survive
/// batching. Sequence numbers ride in last_seq.
TEST(TcpTransportTest, BatchedDeliveryPreservesPerPeerOrder) {
  TcpTransport::Options options;
  options.max_queue_frames = 8192;
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19471);
  TcpTransport a(NodeId{0, 0}, ports, options);
  TcpTransport b(NodeId{0, 1}, ports, options);
  Sink sink_a, sink_b;
  ASSERT_TRUE(a.Start(sink_a.fn()).ok());
  ASSERT_TRUE(b.Start(sink_b.fn()).ok());

  constexpr uint64_t kCount = 3000;
  for (uint64_t i = 0; i < kCount; ++i) {
    GroupHeartbeatMsg msg(1, i);
    while (!a.Send(NodeId{0, 1}, msg).ok())  // Ride out backpressure.
      std::this_thread::yield();
  }
  ASSERT_TRUE(sink_b.WaitForCount(kCount));

  std::lock_guard<std::mutex> lock(sink_b.mu);
  for (uint64_t i = 0; i < kCount; ++i) {
    const auto& beat =
        static_cast<const GroupHeartbeatMsg&>(*sink_b.frames[i].msg);
    ASSERT_EQ(beat.last_seq(), i) << "reordered or lost at " << i;
  }
  // The whole flood must have moved in far fewer syscalls than frames on
  // both sides — the point of batching.
  EXPECT_LT(a.stats().send_syscalls, kCount / 2);
  EXPECT_LT(b.stats().recv_syscalls, kCount / 2);
  a.Stop();
  b.Stop();
}

/// Interleaves frames far larger than the socket buffer with small ones,
/// forcing sendmsg to accept partial batches that end mid-frame; the
/// write-offset resume must keep the stream byte-exact (every frame CRC
/// checks on the far side) and in order.
TEST(TcpTransportTest, PartialWriteResumeAcrossBatchBoundaries) {
  TcpTransport::Options options;
  options.max_queue_frames = 256;
  options.max_queue_bytes = 256 * 1024 * 1024;
  TcpPortMap ports = MustMakePortMap({2}, /*base=*/19481);
  TcpTransport a(NodeId{0, 0}, ports, options);
  TcpTransport b(NodeId{0, 1}, ports, options);
  Sink sink_a, sink_b;
  ASSERT_TRUE(a.Start(sink_a.fn()).ok());
  ASSERT_TRUE(b.Start(sink_b.fn()).ok());

  // ~1MB chunk batches dwarf the loopback socket buffer.
  Rng rng(51);
  std::vector<Chunk> chunks(2);
  for (Chunk& c : chunks) {
    c.chunk_id = static_cast<uint32_t>(rng.NextU64());
    c.data.resize(512 * 1024);
    for (auto& byte : c.data) byte = static_cast<uint8_t>(rng.NextU64());
    c.proof.index = 0;
    c.proof.leaf_count = 2;
  }
  constexpr int kRounds = 8;
  for (int i = 0; i < kRounds; ++i) {
    ChunkBatchMsg big(1, static_cast<uint64_t>(i), RandDigest(rng),
                      RandCert(rng), chunks, 0);
    GroupHeartbeatMsg small(1, static_cast<uint64_t>(i));
    while (!a.Send(NodeId{0, 1}, big).ok()) std::this_thread::yield();
    while (!a.Send(NodeId{0, 1}, small).ok()) std::this_thread::yield();
  }
  ASSERT_TRUE(sink_b.WaitForCount(2 * kRounds));

  std::lock_guard<std::mutex> lock(sink_b.mu);
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_EQ(sink_b.frames[2 * static_cast<size_t>(i)].msg->message_type(),
              MessageType::kChunkBatch);
    ASSERT_EQ(
        sink_b.frames[2 * static_cast<size_t>(i) + 1].msg->message_type(),
        MessageType::kGroupHeartbeat);
  }
  EXPECT_EQ(b.stats().decode_errors, 0u);
  a.Stop();
  b.Stop();
}

/// A peer that connects while the receiver is already draining another
/// connection: the accept lands in a poll round whose fd set does not yet
/// include the new socket, so that round may only walk the connections it
/// polled. (Walking the new one read one slot past the poll set, which
/// -D_GLIBCXX_ASSERTIONS turns into an abort.) Both streams must arrive
/// whole and in order.
TEST(TcpTransportTest, AcceptDuringBusyPollRoundKeepsEveryStream) {
  TcpTransport::Options options;
  options.max_queue_frames = 8192;
  TcpPortMap ports = MustMakePortMap({3}, /*base=*/19491);
  TcpTransport a(NodeId{0, 0}, ports, options);
  TcpTransport b(NodeId{0, 1}, ports, options);
  TcpTransport c(NodeId{0, 2}, ports, options);
  Sink sink_a, sink_b, sink_c;
  ASSERT_TRUE(a.Start(sink_a.fn()).ok());
  ASSERT_TRUE(b.Start(sink_b.fn()).ok());
  ASSERT_TRUE(c.Start(sink_c.fn()).ok());

  // b's stream keeps a's existing connection readable while c dials in
  // halfway through.
  constexpr uint64_t kCount = 2000;
  for (uint64_t i = 0; i < kCount; ++i) {
    GroupHeartbeatMsg from_b(1, i);
    while (!b.Send(NodeId{0, 0}, from_b).ok()) std::this_thread::yield();
    if (i >= kCount / 2) {
      GroupHeartbeatMsg from_c(2, i - kCount / 2);
      while (!c.Send(NodeId{0, 0}, from_c).ok()) std::this_thread::yield();
    }
  }
  ASSERT_TRUE(sink_a.WaitForCount(kCount + kCount / 2));

  std::lock_guard<std::mutex> lock(sink_a.mu);
  uint64_t next[2] = {0, 0};
  for (const Frame& frame : sink_a.frames) {
    const auto& beat = static_cast<const GroupHeartbeatMsg&>(*frame.msg);
    const size_t sender = frame.src.index - 1;
    ASSERT_LT(sender, 2u);
    ASSERT_EQ(beat.last_seq(), next[sender]) << "from node " << frame.src.index;
    ++next[sender];
  }
  EXPECT_EQ(next[0], kCount);
  EXPECT_EQ(next[1], kCount / 2);
  EXPECT_EQ(a.stats().decode_errors, 0u);
  a.Stop();
  b.Stop();
  c.Stop();
}

}  // namespace
}  // namespace massbft
