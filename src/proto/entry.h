#ifndef MASSBFT_PROTO_ENTRY_H_
#define MASSBFT_PROTO_ENTRY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/result.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "sim/time.h"

namespace massbft {

/// A client transaction as carried inside a log entry. `payload` is the
/// workload-encoded operation (YCSB/SmallBank/TPC-C, see workload/); its
/// length matches the paper's reported average transaction sizes.
struct Transaction {
  uint64_t id = 0;
  /// Issuing client (for reply routing) and its group.
  uint32_t client = 0;
  /// Client submit time; carried for end-to-end latency measurement.
  SimTime submit_time = 0;
  Bytes payload;

  void EncodeTo(BinaryWriter* w) const;
  [[nodiscard]] static Result<Transaction> DecodeFrom(BinaryReader* r);
  size_t ByteSize() const {
    return 8 + 4 + 8 + VarintSize(payload.size()) + payload.size();
  }

  friend bool operator==(const Transaction&, const Transaction&) = default;
};

/// A log entry (block): a batch of transactions proposed by group `gid`
/// with group-local sequence number `seq` (paper notation e_{gid,seq}).
/// Immutable after construction; shared by pointer across the simulation.
class Entry {
 public:
  Entry(uint16_t gid, uint64_t seq, std::vector<Transaction> txns);

  /// Decode-path constructor: adopts `encoded` as the canonical
  /// serialization instead of re-encoding the parsed fields. The caller
  /// (Entry::Decode) guarantees the bytes parse back to exactly these
  /// fields.
  Entry(uint16_t gid, uint64_t seq, std::vector<Transaction> txns,
        Bytes encoded);

  uint16_t gid() const { return gid_; }
  uint64_t seq() const { return seq_; }
  const std::vector<Transaction>& txns() const { return txns_; }
  int num_txns() const { return static_cast<int>(txns_.size()); }

  /// Canonical serialized form; chunks are carved from these bytes.
  const Bytes& Encoded() const { return encoded_; }
  size_t ByteSize() const { return encoded_.size(); }

  /// SHA-256 of the canonical encoding — the value certificates sign.
  /// Memoized on first use, so the N nodes sharing this immutable entry
  /// hash it once instead of once per verifier. (Lazy init is not
  /// thread-safe; the simulation is single-threaded.)
  const Digest& digest() const {
    if (!digest_valid_) {
      digest_ = Sha256::Hash(encoded_);
      digest_valid_ = true;
    }
    return digest_;
  }

  [[nodiscard]] static Result<std::shared_ptr<const Entry>> Decode(
      const Bytes& encoded);

 private:
  uint16_t gid_;
  uint64_t seq_;
  std::vector<Transaction> txns_;
  Bytes encoded_;
  mutable Digest digest_{};
  mutable bool digest_valid_ = false;
};

using EntryPtr = std::shared_ptr<const Entry>;

/// PBFT certificate: >= 2f+1 signatures from one group over an entry (or
/// decision) digest. Protects entries from tampering during global
/// replication (paper Section II-A).
///
/// Compact representation (wire v3, DESIGN.md §17): signers are recorded
/// as an ordered participation bitmap over node indices of group `gid`
/// (bit i = node {gid, i} signed), and the signatures ride in a parallel
/// array sorted by index. Versus the old explicit (NodeId, Signature)
/// pair list this drops the per-signature 4-byte id to ~1/8 byte, makes
/// duplicate signers unrepresentable, and makes foreign-group signers
/// unencodable — two whole classes of malformed certificate gone by
/// construction.
class Certificate {
 public:
  uint16_t gid = 0;
  Digest digest{};

  /// Records node {gid, index}'s signature. Idempotent: re-adding an
  /// index keeps the first signature (duplicates can't inflate a quorum).
  void AddSignature(uint16_t index, const Signature& sig);

  [[nodiscard]] size_t NumSignatures() const { return sigs_.size(); }
  [[nodiscard]] bool HasSigner(uint16_t index) const;
  /// Signer indices in ascending order.
  [[nodiscard]] std::vector<uint16_t> Signers() const;
  /// Signatures in ascending signer-index order, parallel to Signers().
  const std::vector<Signature>& Signatures() const { return sigs_; }

  void EncodeTo(BinaryWriter* w) const;
  [[nodiscard]] static Result<Certificate> DecodeFrom(BinaryReader* r);
  /// Derived, not hardcoded: header + bitmap + packed signature array.
  size_t ByteSize() const {
    return 2 + digest.size() + 2 + bitmap_.size() +
           sigs_.size() * sizeof(Signature);
  }

  /// True if the certificate carries at least `quorum` valid signatures
  /// over `digest`. The hot path batch-verifies all signatures in one
  /// pass (one multi-scalar multiplication under ed25519); only if that
  /// combined check fails does it fall back to per-signature verification
  /// to count the valid ones — and, when `forgers` is non-null, to name
  /// the indices whose signatures failed.
  [[nodiscard]] bool Verify(const KeyRegistry& registry, int quorum,
                            std::vector<uint16_t>* forgers = nullptr) const;

  friend bool operator==(const Certificate&, const Certificate&) = default;

 private:
  /// Participation bitmap, little-endian within each byte (bit i of byte
  /// b = node index 8*b + i). Canonical: never has a trailing zero byte.
  Bytes bitmap_;
  std::vector<Signature> sigs_;
};

/// Bounded memo of certificates that passed a full check, matched by
/// exact equality (group, digest, signer bitmap and every signature byte),
/// so one that differs anywhere is checked in full. A remote leader sees
/// the proposer's certificate at global Raft propose and again with any
/// chunk whose sender committed with the same signer set; the second
/// check is then skipped.
class VerifiedCertMemo {
 public:
  explicit VerifiedCertMemo(size_t capacity) : capacity_(capacity) {}

  /// True if `cert` equals a remembered certificate; otherwise returns
  /// `check(cert)` and remembers `cert` if it passed (evicting the oldest
  /// beyond capacity). A failure is never remembered.
  template <typename CheckFn>
  [[nodiscard]] bool Verify(const Certificate& cert, CheckFn&& check) {
    if (Contains(cert)) return true;
    if (!check(cert)) return false;
    Remember(cert);
    return true;
  }

 private:
  [[nodiscard]] bool Contains(const Certificate& cert) const;
  void Remember(const Certificate& cert);

  size_t capacity_;
  std::deque<Certificate> certs_;  // Oldest first.
};

}  // namespace massbft

#endif  // MASSBFT_PROTO_ENTRY_H_
