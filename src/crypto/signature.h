#ifndef MASSBFT_CRYPTO_SIGNATURE_H_
#define MASSBFT_CRYPTO_SIGNATURE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/lock_rank.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "crypto/sha256.h"

namespace massbft {

namespace ed25519 {
struct PrecomputedKey;
}  // namespace ed25519

/// Globally unique node identifier: (group id, node index within group)
/// packed into 32 bits. Group ids and node indices are small (<= 2^16).
struct NodeId {
  uint16_t group = 0;
  uint16_t index = 0;

  uint32_t Packed() const {
    return (static_cast<uint32_t>(group) << 16) | index;
  }
  static NodeId FromPacked(uint32_t v) {
    return NodeId{static_cast<uint16_t>(v >> 16),
                  static_cast<uint16_t>(v & 0xFFFF)};
  }

  friend bool operator==(const NodeId&, const NodeId&) = default;
  friend auto operator<=>(const NodeId&, const NodeId&) = default;
};

/// 64-byte signature — the ed25519 wire size the paper uses. Both backends
/// emit exactly this shape, so message-size accounting is identical in
/// simulated and real-crypto modes.
using Signature = std::array<uint8_t, 64>;

/// Which signature backend a KeyRegistry runs (DESIGN.md §17).
enum class CryptoScheme {
  /// HMAC-SHA256 stand-in: microseconds per op, byte-compatible wire shape.
  /// The sim figures run thousands of nodes in one process; real curve math
  /// there would only slow the harness without changing any plotted result
  /// (nodes charge simulated sign/verify CPU costs instead). Kept as the
  /// sim default for exactly that reason.
  kSimulatedHmac,
  /// Real RFC 8032 ed25519 (src/crypto/ed25519.h) — the RealCluster
  /// default. Signatures are actual curve points; verification does the
  /// group-equation check, batched on the certificate path.
  kEd25519,
};

/// Short stable name for logs / result JSON ("hmac-sim" / "ed25519").
[[nodiscard]] const char* CryptoSchemeName(CryptoScheme scheme);

/// One node's key material; each backend fills only its own field.
struct KeyPair {
  /// HMAC key (empty for ed25519; verification is symmetric).
  Bytes secret;
  /// ed25519 key (null for HMAC): the public key decompressed once into
  /// -A's odd-multiple table, plus the expanded secret. Immutable and
  /// built before the key enters a KeyRegistry, so concurrent signers and
  /// verifiers read it without a lock.
  std::shared_ptr<const ed25519::PrecomputedKey> precomputed;
};

/// Backend seam: everything KeyRegistry needs from a signature algorithm.
/// Implementations are stateless (all state lives in the KeyPair), so one
/// instance serves every node and every thread.
class SignatureScheme {
 public:
  virtual ~SignatureScheme() = default;

  /// Deterministically derives `node`'s key material (reproducible
  /// clusters; the registry is the trusted key-distribution channel a real
  /// deployment gets from its PKI).
  [[nodiscard]] virtual KeyPair DeriveKeyPair(NodeId node) const = 0;

  [[nodiscard]] virtual Signature Sign(const KeyPair& key,
                                       const uint8_t* data,
                                       size_t len) const = 0;

  [[nodiscard]] virtual bool Verify(const KeyPair& key, const uint8_t* data,
                                    size_t len, const Signature& sig) const = 0;

  /// Verifies n signatures over ONE message (the certificate shape).
  /// `keys` and `sigs` are parallel arrays. Default: a scalar loop;
  /// ed25519 overrides with a single multi-scalar multiplication. A false
  /// verdict only says "at least one is bad" — callers fall back to Verify
  /// per entry to name the forger.
  [[nodiscard]] virtual bool VerifyBatch(
      const std::vector<const KeyPair*>& keys, const uint8_t* data, size_t len,
      const std::vector<const Signature*>& sigs) const;
};

/// Simulated backend (the pre-ed25519 "SIMULATED PKI" documented
/// substitution): HMAC-SHA256 over the message, second half a hash of the
/// first so the signature has full 64-byte shape. Unforgeable within the
/// simulation, free of curve math.
class SimulatedHmacScheme final : public SignatureScheme {
 public:
  [[nodiscard]] KeyPair DeriveKeyPair(NodeId node) const override;
  [[nodiscard]] Signature Sign(const KeyPair& key, const uint8_t* data,
                               size_t len) const override;
  [[nodiscard]] bool Verify(const KeyPair& key, const uint8_t* data,
                            size_t len, const Signature& sig) const override;
};

/// Real ed25519 backend (RFC 8032, src/crypto/ed25519.{h,cc}).
class Ed25519Scheme final : public SignatureScheme {
 public:
  [[nodiscard]] KeyPair DeriveKeyPair(NodeId node) const override;
  [[nodiscard]] Signature Sign(const KeyPair& key, const uint8_t* data,
                               size_t len) const override;
  [[nodiscard]] bool Verify(const KeyPair& key, const uint8_t* data,
                            size_t len, const Signature& sig) const override;
  [[nodiscard]] bool VerifyBatch(
      const std::vector<const KeyPair*>& keys, const uint8_t* data, size_t len,
      const std::vector<const Signature*>& sigs) const override;
};

/// Counters for the verification paths, for the `verify_batch_ratio`
/// result metric: what fraction of all signature checks rode the batched
/// certificate path instead of scalar Verify.
struct VerifyStats {
  uint64_t scalar_verifies = 0;   // single-signature Verify calls
  uint64_t batch_signatures = 0;  // signatures checked inside VerifyBatch
  uint64_t batch_calls = 0;       // VerifyBatch invocations (>= 2 sigs)
  uint64_t batch_fallbacks = 0;   // batches that failed and went scalar
};

/// Key directory for a cluster: derives, stores, and applies per-node key
/// material through a pluggable SignatureScheme. Thread-safe: RealCluster
/// registers nodes at setup but node threads sign/verify concurrently, so
/// the key map is behind a ranked mutex; the crypto itself runs outside
/// the lock (unordered_map references are stable under insertion).
class KeyRegistry {
 public:
  explicit KeyRegistry(CryptoScheme scheme = CryptoScheme::kSimulatedHmac);

  /// Creates and registers a key pair for `node`. Idempotent per node.
  void RegisterNode(NodeId node);

  /// Signs `len` bytes at `data` with the node's key.
  /// Dies if the node was never registered (a harness bug, not input error).
  [[nodiscard]] Signature Sign(NodeId node, const uint8_t* data,
                               size_t len) const;
  [[nodiscard]] Signature Sign(NodeId node, const Bytes& data) const {
    return Sign(node, data.data(), data.size());
  }

  /// Verifies that `sig` is `node`'s signature over the data. Ignoring the
  /// verdict would accept forgeries, hence [[nodiscard]] (DESIGN.md §11 D4).
  [[nodiscard]] bool Verify(NodeId node, const uint8_t* data, size_t len,
                            const Signature& sig) const;
  [[nodiscard]] bool Verify(NodeId node, const Bytes& data,
                            const Signature& sig) const {
    return Verify(node, data.data(), data.size(), sig);
  }

  /// Verifies `sigs[i]` as `nodes[i]`'s signature over one shared message
  /// — the certificate hot path (2f+1 signatures over one entry digest) —
  /// in a single batched pass when the scheme supports it. Returns true
  /// iff ALL signatures are valid and every node is registered. On false,
  /// callers that need the culprit re-check per node with Verify.
  [[nodiscard]] bool VerifyBatch(const std::vector<NodeId>& nodes,
                                 const uint8_t* data, size_t len,
                                 const std::vector<const Signature*>& sigs)
      const;

  size_t num_nodes() const;

  /// All registered nodes in ascending (group, index) order. Any
  /// result-observable dump of the registry must use this rather than
  /// walking the hash map, whose order is hash-seed dependent (DESIGN.md
  /// §11, rule D2).
  [[nodiscard]] std::vector<NodeId> RegisteredNodes() const;

  [[nodiscard]] CryptoScheme scheme() const { return scheme_id_; }
  [[nodiscard]] const char* scheme_name() const {
    return CryptoSchemeName(scheme_id_);
  }

  /// Snapshot of the verification-path counters (relaxed reads).
  [[nodiscard]] VerifyStats verify_stats() const;
  /// batch_signatures / (batch_signatures + scalar_verifies); 0 when no
  /// verification happened.
  [[nodiscard]] double verify_batch_ratio() const;

 private:
  /// Looks up a registered key pair; nullptr if absent. The returned
  /// pointer stays valid for the registry's lifetime (node keys are never
  /// erased), so callers may use it after the lock is released.
  const KeyPair* FindKey(NodeId node) const;

  CryptoScheme scheme_id_;
  std::unique_ptr<SignatureScheme> scheme_;

  mutable RankedMutex keys_mu_{"crypto.keys_mu", LockRank::kCryptoKeys};
  std::unordered_map<uint32_t, KeyPair> keys_ MASSBFT_GUARDED_BY(keys_mu_);

  // Plain counters, not guarded: bumped on the hot verify path where a
  // shared lock would serialize every node thread.
  mutable std::atomic<uint64_t> scalar_verifies_{0};
  mutable std::atomic<uint64_t> batch_signatures_{0};
  mutable std::atomic<uint64_t> batch_calls_{0};
  mutable std::atomic<uint64_t> batch_fallbacks_{0};
};

}  // namespace massbft

#endif  // MASSBFT_CRYPTO_SIGNATURE_H_
