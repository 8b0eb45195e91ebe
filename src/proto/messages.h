#ifndef MASSBFT_PROTO_MESSAGES_H_
#define MASSBFT_PROTO_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/result.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "proto/entry.h"
#include "sim/network.h"
#include "sim/time.h"

namespace massbft {

/// Wire message kinds. Values are stable (serialized as one byte).
enum class MessageType : uint8_t {
  kClientRequest = 1,
  kClientReply = 2,
  // Local PBFT (intra-group).
  kPrePrepare = 10,
  kPrepare = 11,
  kCommit = 12,
  kViewChange = 13,
  kNewView = 14,
  kCertifyRequest = 15,  // Skip-prepare decision certification (Ziziphus).
  kCertifyVote = 16,
  // Global replication payloads.
  kEntryTransfer = 20,  // Full entry copy (one-way / bijective / GeoBFT).
  kChunkBatch = 21,     // Erasure-coded chunks with Merkle proofs (EBR).
  // Global Raft control plane.
  kRaftPropose = 30,
  kRaftAccept = 31,
  kRaftCommit = 32,
  kTimestampAssign = 33,
  kGroupHeartbeat = 34,
  kGroupRelay = 35,  // Leader -> group members: raft outcomes over LAN.
  // Protocol-specific.
  kEpochMarker = 40,    // ISS epoch boundary.
  kLeaderForward = 41,  // Steward: remote group -> global leader.
  // Crash recovery (Section V-C, "When G_i recovers later...").
  kCatchUpRequest = 50,
  kFreezeQuery = 51,
  kFreezeReport = 52,
  kCatchUpDone = 53,
};

/// Fixed frame overhead charged on every message in addition to the body:
/// the net/ wire format's frame header (magic u32, version u8, type u8,
/// flags u8, sender NodeId u32, body length u32, CRC32 u32 — see DESIGN.md
/// §12). net/wire.cc static_asserts that its header layout matches this
/// constant, so simulated link accounting and the real transport charge
/// identical per-message overhead.
constexpr size_t kFrameOverheadBytes = 4 + 1 + 1 + 1 + 4 + 4 + 4;

/// Size of the wire trace context (gid u16, seq u64, origin NodeId u32,
/// origin timestamp u64 — DESIGN.md §14) that entry-carrying frames
/// attach after the header. Always present for those types regardless of
/// whether tracing is enabled, so byte accounting never depends on
/// observability settings.
constexpr size_t kTraceContextBytes = 2 + 8 + 4 + 8;

/// True for the message types that carry an entry (or propose one) across
/// the wire and therefore attach a trace context: the hops that stitch an
/// entry's cross-node lifecycle together in the merged trace.
constexpr bool CarriesTraceContext(MessageType type) {
  return type == MessageType::kPrePrepare ||
         type == MessageType::kEntryTransfer ||
         type == MessageType::kChunkBatch ||
         type == MessageType::kRaftPropose ||
         type == MessageType::kLeaderForward;
}

/// Common base for every wire message. The encoded body is the single
/// source of truth for message size: ByteSize() runs the real encoder once
/// and memoizes the result (messages are immutable after construction and
/// not shared across threads before their first ByteSize/encode, so the
/// lazy init is safe in both the single-threaded simulation and the
/// runtime, where each message is encoded on its sending node's thread).
class ProtocolMessage : public SimMessage {
 public:
  explicit ProtocolMessage(MessageType type) : type_(type) {}

  int type() const override { return static_cast<int>(type_); }
  MessageType message_type() const { return type_; }
  size_t ByteSize() const override {
    return kFrameOverheadBytes +
           (CarriesTraceContext(type_) ? kTraceContextBytes : 0) + body_size();
  }

  /// Entry identity for cross-node trace correlation. Returns true and
  /// fills (gid, seq) exactly for the types where CarriesTraceContext()
  /// holds (the wire layer static-asserts nothing, but DecodeFrame rejects
  /// frames whose flag disagrees with the type, which keeps this invariant
  /// honest end to end).
  virtual bool TraceKey(uint16_t* gid, uint64_t* seq) const {
    (void)gid;
    (void)seq;
    return false;
  }

  /// Serializes the message body (everything after the frame header) in the
  /// canonical wire layout. DecodeMessageBody() inverts it.
  virtual void EncodeBodyTo(BinaryWriter* w) const = 0;

  /// Encoded body size in bytes, derived from the real encoder.
  size_t body_size() const {
    if (body_size_ == kUnknownBodySize) {
      BinaryWriter w;
      EncodeBodyTo(&w);
      body_size_ = w.size();
    }
    return body_size_;
  }

 private:
  static constexpr size_t kUnknownBodySize = static_cast<size_t>(-1);

  MessageType type_;
  mutable size_t body_size_ = kUnknownBodySize;
};

/// Decodes one message body of the given type (the inverse of
/// EncodeBodyTo). Rejects unknown types, truncated or trailing bytes with
/// an error Status — never crashes on malformed input.
[[nodiscard]] Result<std::unique_ptr<ProtocolMessage>> DecodeMessageBody(
    MessageType type, BinaryReader* r);

// ------------------------------------------------------------------ Client

/// One client transaction submitted to its nearest group leader.
class ClientRequestMsg : public ProtocolMessage {
 public:
  explicit ClientRequestMsg(Transaction txn)
      : ProtocolMessage(MessageType::kClientRequest), txn_(std::move(txn)) {}
  const Transaction& txn() const { return txn_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  Transaction txn_;
};

/// Commit notification back to the client (small).
class ClientReplyMsg : public ProtocolMessage {
 public:
  ClientReplyMsg(uint64_t txn_id, bool committed)
      : ProtocolMessage(MessageType::kClientReply),
        txn_id_(txn_id),
        committed_(committed) {}
  uint64_t txn_id() const { return txn_id_; }
  bool committed() const { return committed_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  uint64_t txn_id_;
  bool committed_;
};

// ------------------------------------------------------------------ PBFT

/// PBFT pre-prepare: the group leader's proposal carrying the full entry.
class PrePrepareMsg : public ProtocolMessage {
 public:
  PrePrepareMsg(uint64_t view, uint64_t seq, EntryPtr entry, Signature sig)
      : ProtocolMessage(MessageType::kPrePrepare),
        view_(view),
        seq_(seq),
        entry_(std::move(entry)),
        sig_(sig) {}
  uint64_t view() const { return view_; }
  uint64_t seq() const { return seq_; }
  const EntryPtr& entry() const { return entry_; }
  const Signature& sig() const { return sig_; }
  void EncodeBodyTo(BinaryWriter* w) const override;
  bool TraceKey(uint16_t* gid, uint64_t* seq) const override {
    *gid = entry_->gid();
    *seq = entry_->seq();
    return true;
  }

 private:
  uint64_t view_;
  uint64_t seq_;
  EntryPtr entry_;
  Signature sig_;
};

/// PBFT prepare / commit votes (digest + signature).
class PbftVoteMsg : public ProtocolMessage {
 public:
  PbftVoteMsg(MessageType type, uint64_t view, uint64_t seq,
              const Digest& digest, Signature sig)
      : ProtocolMessage(type),
        view_(view),
        seq_(seq),
        digest_(digest),
        sig_(sig) {}
  uint64_t view() const { return view_; }
  uint64_t seq() const { return seq_; }
  const Digest& digest() const { return digest_; }
  const Signature& sig() const { return sig_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  uint64_t view_;
  uint64_t seq_;
  Digest digest_;
  Signature sig_;
};

/// PBFT view change / new view. The proof payload (prepared-certificate
/// set) is summarized as an opaque zero blob of the modeled size; the
/// fields that drive the protocol (new view, last sequence) are carried
/// for real.
class ViewChangeMsg : public ProtocolMessage {
 public:
  ViewChangeMsg(MessageType type, uint64_t new_view, uint64_t last_seq,
                size_t proof_bytes)
      : ProtocolMessage(type),
        new_view_(new_view),
        last_seq_(last_seq),
        proof_bytes_(proof_bytes) {}
  uint64_t new_view() const { return new_view_; }
  uint64_t last_seq() const { return last_seq_; }
  size_t proof_bytes() const { return proof_bytes_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  uint64_t new_view_;
  uint64_t last_seq_;
  size_t proof_bytes_;
};

/// Identifies a group-level decision being certified by skip-prepare
/// consensus: e.g. "group `voter_gid` accepts entry e_{target_gid,seq} and
/// stamps it with clock value ts".
struct DecisionId {
  uint8_t kind = 0;  // DigestCertifier::Kind.
  uint16_t voter_gid = 0;
  uint16_t target_gid = 0;
  uint64_t target_seq = 0;
  uint64_t ts = 0;

  void EncodeTo(BinaryWriter* w) const;
  [[nodiscard]] static Result<DecisionId> DecodeFrom(BinaryReader* r);

  friend bool operator==(const DecisionId&, const DecisionId&) = default;
  friend auto operator<=>(const DecisionId&, const DecisionId&) = default;
};

/// Leader -> group: request signatures over a decision (PBFT with the
/// prepare phase skipped; valid because the consensus input was already
/// certified by the proposing group — see the paper's Baseline and
/// Ziziphus).
class CertifyRequestMsg : public ProtocolMessage {
 public:
  CertifyRequestMsg(DecisionId decision, Signature sig)
      : ProtocolMessage(MessageType::kCertifyRequest),
        decision_(decision),
        sig_(sig) {}
  const DecisionId& decision() const { return decision_; }
  const Signature& sig() const { return sig_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  DecisionId decision_;
  Signature sig_;
};

/// Follower -> leader: signature share over the decision.
class CertifyVoteMsg : public ProtocolMessage {
 public:
  CertifyVoteMsg(DecisionId decision, Signature sig)
      : ProtocolMessage(MessageType::kCertifyVote),
        decision_(decision),
        sig_(sig) {}
  const DecisionId& decision() const { return decision_; }
  const Signature& sig() const { return sig_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  DecisionId decision_;
  Signature sig_;
};

// ------------------------------------------------- Replication payloads

/// A full entry copy with its local-consensus certificate.
class EntryTransferMsg : public ProtocolMessage {
 public:
  EntryTransferMsg(EntryPtr entry, Certificate cert)
      : ProtocolMessage(MessageType::kEntryTransfer),
        entry_(std::move(entry)),
        cert_(std::move(cert)) {}
  const EntryPtr& entry() const { return entry_; }
  const Certificate& cert() const { return cert_; }
  void EncodeBodyTo(BinaryWriter* w) const override;
  bool TraceKey(uint16_t* gid, uint64_t* seq) const override {
    *gid = entry_->gid();
    *seq = entry_->seq();
    return true;
  }

 private:
  EntryPtr entry_;
  Certificate cert_;
};

/// One erasure-coded chunk plus its Merkle proof.
struct Chunk {
  uint32_t chunk_id = 0;
  Bytes data;
  MerkleProof proof;

  void EncodeTo(BinaryWriter* w) const;
  [[nodiscard]] static Result<Chunk> DecodeFrom(BinaryReader* r);
  size_t ByteSize() const {
    return 4 + VarintSize(data.size()) + data.size() + proof.ByteSize();
  }
};

/// The chunks one sender node transfers to one receiver node (paper
/// Algorithm 1 gives contiguous chunk runs per sender/receiver pair), with
/// the Merkle root and entry certificate for optimistic rebuild.
class ChunkBatchMsg : public ProtocolMessage {
 public:
  ChunkBatchMsg(uint16_t gid, uint64_t seq, Digest merkle_root,
                Certificate cert, std::vector<Chunk> chunks, size_t entry_size)
      : ProtocolMessage(MessageType::kChunkBatch),
        gid_(gid),
        seq_(seq),
        merkle_root_(merkle_root),
        cert_(std::move(cert)),
        chunks_(std::move(chunks)),
        entry_size_(entry_size) {}

  uint16_t gid() const { return gid_; }
  uint64_t seq() const { return seq_; }
  const Digest& merkle_root() const { return merkle_root_; }
  const Certificate& cert() const { return cert_; }
  const std::vector<Chunk>& chunks() const { return chunks_; }
  size_t entry_size() const { return entry_size_; }
  void EncodeBodyTo(BinaryWriter* w) const override;
  bool TraceKey(uint16_t* gid, uint64_t* seq) const override {
    *gid = gid_;
    *seq = seq_;
    return true;
  }

 private:
  uint16_t gid_;
  uint64_t seq_;
  Digest merkle_root_;
  Certificate cert_;
  std::vector<Chunk> chunks_;
  size_t entry_size_;
};

// ------------------------------------------------------- Global control

/// One vector-timestamp element assignment: group `assigner_gid` stamps
/// entry e_{target_gid, target_seq} with its clock value `ts`.
struct TimestampElement {
  uint16_t assigner_gid = 0;
  uint16_t target_gid = 0;
  uint64_t target_seq = 0;
  uint64_t ts = 0;

  void EncodeTo(BinaryWriter* w) const;
  [[nodiscard]] static Result<TimestampElement> DecodeFrom(BinaryReader* r);

  static constexpr size_t kByteSize = 2 + 2 + 8 + 8;
  friend bool operator==(const TimestampElement&,
                         const TimestampElement&) = default;
};

/// Raft propose control message (leader group -> follower groups): the
/// entry digest + certificate; the payload itself travels via the
/// replication strategy. Carries piggybacked VTS assignments (MassBFT's
/// overlapped design).
class RaftProposeMsg : public ProtocolMessage {
 public:
  RaftProposeMsg(uint16_t gid, uint64_t seq, Digest digest, Certificate cert,
                 std::vector<TimestampElement> piggyback,
                 uint16_t origin_gid = 0, uint64_t origin_seq = 0)
      : ProtocolMessage(MessageType::kRaftPropose),
        gid_(gid),
        seq_(seq),
        digest_(digest),
        cert_(std::move(cert)),
        piggyback_(std::move(piggyback)),
        origin_gid_(origin_gid),
        origin_seq_(origin_seq) {}
  uint16_t gid() const { return gid_; }
  uint64_t seq() const { return seq_; }
  const Digest& digest() const { return digest_; }
  const Certificate& cert() const { return cert_; }
  const std::vector<TimestampElement>& piggyback() const { return piggyback_; }
  /// Steward: the (origin group, origin sequence) of the funneled entry
  /// proposed under the master's global sequence.
  uint16_t origin_gid() const { return origin_gid_; }
  uint64_t origin_seq() const { return origin_seq_; }
  void EncodeBodyTo(BinaryWriter* w) const override;
  bool TraceKey(uint16_t* gid, uint64_t* seq) const override {
    *gid = gid_;
    *seq = seq_;
    return true;
  }

 private:
  uint16_t gid_;
  uint64_t seq_;
  Digest digest_;
  Certificate cert_;
  std::vector<TimestampElement> piggyback_;
  uint16_t origin_gid_;
  uint64_t origin_seq_;
};

/// Raft accept: follower group's receipt for e_{gid,seq}, protected by a
/// certificate from the accepting group (PBFT skip-prepare, Ziziphus-style).
/// `ts` is the accepting group's clock assignment for the entry (MassBFT).
class RaftAcceptMsg : public ProtocolMessage {
 public:
  RaftAcceptMsg(uint16_t gid, uint64_t seq, uint16_t from_group,
                Certificate cert, uint64_t ts)
      : ProtocolMessage(MessageType::kRaftAccept),
        gid_(gid),
        seq_(seq),
        from_group_(from_group),
        cert_(std::move(cert)),
        ts_(ts) {}
  uint16_t gid() const { return gid_; }
  uint64_t seq() const { return seq_; }
  uint16_t from_group() const { return from_group_; }
  const Certificate& cert() const { return cert_; }
  uint64_t ts() const { return ts_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  uint16_t gid_;
  uint64_t seq_;
  uint16_t from_group_;
  Certificate cert_;
  uint64_t ts_;
};

/// Raft commit: proposer announces e_{gid,seq} is globally replicated.
class RaftCommitMsg : public ProtocolMessage {
 public:
  RaftCommitMsg(uint16_t gid, uint64_t seq, Certificate cert)
      : ProtocolMessage(MessageType::kRaftCommit),
        gid_(gid),
        seq_(seq),
        cert_(std::move(cert)) {}
  uint16_t gid() const { return gid_; }
  uint64_t seq() const { return seq_; }
  const Certificate& cert() const { return cert_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  uint16_t gid_;
  uint64_t seq_;
  Certificate cert_;
};

/// Standalone VTS replication for groups with no propose traffic to
/// piggyback on, and for crashed-group takeover (paper Section V-C).
class TimestampAssignMsg : public ProtocolMessage {
 public:
  explicit TimestampAssignMsg(std::vector<TimestampElement> elements,
                              bool replay = false)
      : ProtocolMessage(MessageType::kTimestampAssign),
        elements_(std::move(elements)),
        replay_(replay) {}
  const std::vector<TimestampElement>& elements() const { return elements_; }
  bool replay() const { return replay_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  std::vector<TimestampElement> elements_;
  bool replay_;
};

/// Marks the end of a catch-up replay stream (same FIFO link as the
/// replay messages, so its arrival means the history is fully delivered).
class CatchUpDoneMsg : public ProtocolMessage {
 public:
  CatchUpDoneMsg() : ProtocolMessage(MessageType::kCatchUpDone) {}
  void EncodeBodyTo(BinaryWriter* w) const override;
};

/// One global-consensus outcome relayed from a group leader to its group
/// members over LAN, so every node tracks commit/timestamp state.
struct RelayEvent {
  enum Type : uint8_t { kCommitted = 1, kTimestamp = 2 };
  uint8_t type = 0;
  uint16_t gid = 0;        // Proposer group of the entry.
  uint64_t seq = 0;        // Entry sequence.
  uint16_t assigner = 0;   // For kTimestamp: the stamping group.
  uint64_t ts = 0;         // For kTimestamp: the clock value.

  void EncodeTo(BinaryWriter* w) const;
  [[nodiscard]] static Result<RelayEvent> DecodeFrom(BinaryReader* r);

  static constexpr size_t kByteSize = 1 + 2 + 8 + 2 + 8;
};

/// Leader -> group members: batched raft outcomes. `replay` marks
/// catch-up history (applied ahead of buffered live events on a
/// recovering node, preserving per-assigner timestamp order).
class GroupRelayMsg : public ProtocolMessage {
 public:
  explicit GroupRelayMsg(std::vector<RelayEvent> events, bool replay = false)
      : ProtocolMessage(MessageType::kGroupRelay),
        events_(std::move(events)),
        replay_(replay) {}
  const std::vector<RelayEvent>& events() const { return events_; }
  bool replay() const { return replay_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  std::vector<RelayEvent> events_;
  bool replay_;
};

/// Group liveness heartbeat (crash detection for Raft leader takeover).
class GroupHeartbeatMsg : public ProtocolMessage {
 public:
  GroupHeartbeatMsg(uint16_t gid, uint64_t last_seq)
      : ProtocolMessage(MessageType::kGroupHeartbeat),
        gid_(gid),
        last_seq_(last_seq) {}
  uint16_t gid() const { return gid_; }
  uint64_t last_seq() const { return last_seq_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  uint16_t gid_;
  uint64_t last_seq_;
};

/// ISS epoch boundary marker: group `gid` declares `count` entries in
/// epoch `epoch`.
class EpochMarkerMsg : public ProtocolMessage {
 public:
  EpochMarkerMsg(uint16_t gid, uint64_t epoch, uint64_t count)
      : ProtocolMessage(MessageType::kEpochMarker),
        gid_(gid),
        epoch_(epoch),
        count_(count) {}
  uint16_t gid() const { return gid_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t count() const { return count_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  uint16_t gid_;
  uint64_t epoch_;
  uint64_t count_;
};

/// Takeover freeze agreement: before assigning a crashed group's clock,
/// the takeover leader collects every alive leader's highest observed
/// stamp from that group, so the frozen value never regresses below a
/// stamp that reached only part of the cluster.
class FreezeMsg : public ProtocolMessage {
 public:
  FreezeMsg(MessageType type, uint16_t dead_gid, uint64_t max_seen)
      : ProtocolMessage(type), dead_gid_(dead_gid), max_seen_(max_seen) {}
  uint16_t dead_gid() const { return dead_gid_; }
  uint64_t max_seen() const { return max_seen_; }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  uint16_t dead_gid_;
  uint64_t max_seen_;
};

/// A recovered group's leader asks a peer group leader to replay what it
/// missed: entry payloads, commit decisions, and VTS assignments past the
/// requester's per-instance execution frontier.
class CatchUpRequestMsg : public ProtocolMessage {
 public:
  explicit CatchUpRequestMsg(std::vector<std::pair<uint16_t, uint64_t>>
                                 executed_next)
      : ProtocolMessage(MessageType::kCatchUpRequest),
        executed_next_(std::move(executed_next)) {}
  /// (gid, next sequence the requester would execute).
  const std::vector<std::pair<uint16_t, uint64_t>>& executed_next() const {
    return executed_next_;
  }
  void EncodeBodyTo(BinaryWriter* w) const override;

 private:
  std::vector<std::pair<uint16_t, uint64_t>> executed_next_;
};

/// Steward: a remote group forwards its locally-certified entry to the
/// global leader group, which alone may propose.
class LeaderForwardMsg : public ProtocolMessage {
 public:
  LeaderForwardMsg(EntryPtr entry, Certificate cert)
      : ProtocolMessage(MessageType::kLeaderForward),
        entry_(std::move(entry)),
        cert_(std::move(cert)) {}
  const EntryPtr& entry() const { return entry_; }
  const Certificate& cert() const { return cert_; }
  void EncodeBodyTo(BinaryWriter* w) const override;
  bool TraceKey(uint16_t* gid, uint64_t* seq) const override {
    *gid = entry_->gid();
    *seq = entry_->seq();
    return true;
  }

 private:
  EntryPtr entry_;
  Certificate cert_;
};

}  // namespace massbft

#endif  // MASSBFT_PROTO_MESSAGES_H_
