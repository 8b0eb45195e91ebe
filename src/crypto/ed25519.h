#ifndef MASSBFT_CRYPTO_ED25519_H_
#define MASSBFT_CRYPTO_ED25519_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"

namespace massbft {

/// Portable, dependency-free ed25519 (RFC 8032), validated against the RFC
/// §7.1 test vectors in tests/crypto_test.cc. Field arithmetic uses five
/// 51-bit limbs over unsigned __int128; point arithmetic uses extended
/// twisted-Edwards coordinates (DESIGN.md §17 describes the kernel: a
/// fixed-base table for [s]B, split-scalar width-5 NAF multi-scalar
/// multiplication for verification, per-key precomputation).
///
/// All arithmetic is variable-time. Verification inputs are public
/// (signatures on consensus messages), and the signing keys this system
/// uses are derived from node ids (crypto/signature.cc) — reproducible by
/// design — so a timing channel on Sign would reveal nothing that is not
/// already public. Do not reuse this code to sign with secret keys.
///
/// Strictness (anti-malleability, both per RFC 8032 MUSTs):
///   * the scalar half `s` of a signature is rejected unless s < L;
///   * point encodings with a non-canonical y coordinate (y >= p) are
///     rejected.
namespace ed25519 {

/// 32-byte secret seed (RFC 8032 "private key").
using SecretKey = std::array<uint8_t, 32>;
/// 32-byte compressed public point A.
using PublicKey = std::array<uint8_t, 32>;
/// 64-byte signature: compressed R followed by little-endian s.
using Sig = std::array<uint8_t, 64>;

/// Derives the public key for a secret seed (RFC 8032 §5.1.5).
[[nodiscard]] PublicKey DerivePublicKey(const SecretKey& secret);

/// Signs `len` bytes at `data` (RFC 8032 §5.1.6, deterministic nonce).
[[nodiscard]] Sig Sign(const SecretKey& secret, const PublicKey& public_key,
                       const uint8_t* data, size_t len);

/// Verifies one signature (RFC 8032 §5.1.7, cofactorless group equation
/// [s]B == R + [h]A with strict range checks on s and the point
/// encodings).
[[nodiscard]] bool Verify(const PublicKey& public_key, const uint8_t* data,
                          size_t len, const Sig& sig);

/// Per-key precomputation: the public key decompressed once into tables
/// of the odd multiples -A, -3A, ..., -15A and of the same multiples of
/// 2^128 (-A) (~1.3 KB each), plus — for a signing key — the expanded
/// secret (clamped scalar a and nonce prefix).
/// Opaque and immutable once built, so one instance is shared by any
/// number of threads without a lock.
struct PrecomputedKey;

/// Builds the signing key for `secret`; its public key is
/// DerivePublicKey(secret).
[[nodiscard]] std::shared_ptr<const PrecomputedKey> PrecomputeSigningKey(
    const SecretKey& secret);
/// Builds a verify-only key. Never fails: an encoding that is not a
/// canonical curve point yields a key every Verify rejects, exactly as
/// Verify on the raw bytes would.
[[nodiscard]] std::shared_ptr<const PrecomputedKey> PrecomputeVerifyKey(
    const PublicKey& public_key);

/// Sign / Verify through a precomputed key: same bytes and verdicts as
/// the raw-key overloads, minus the per-call key expansion and point
/// decompression. Sign requires a key from PrecomputeSigningKey.
[[nodiscard]] Sig Sign(const PrecomputedKey& key, const uint8_t* data,
                       size_t len);
[[nodiscard]] bool Verify(const PrecomputedKey& key, const uint8_t* data,
                          size_t len, const Sig& sig);

/// One (public key, signature) pair of a batch. Set exactly one of
/// `public_key` (raw bytes, decompressed per call) and `key`.
struct BatchItem {
  const PublicKey* public_key = nullptr;
  const Sig* sig = nullptr;
  const PrecomputedKey* key = nullptr;
};

/// Batch verification of n signatures over ONE message — the certificate
/// shape: 2f+1 group members all sign the same entry digest. Checks the
/// random-linear-combination equation
///
///     [sum_i z_i s_i] B  -  sum_i [z_i] R_i  -  sum_i [z_i h_i] A_i  ==  O
///
/// with one interleaved multi-scalar multiplication, sharing its ~128
/// doublings (every scalar split into 128-bit halves) across all 3n+2
/// terms (the speedup over n scalar Verify calls; see DESIGN.md §17). The 128-bit coefficients z_i are derived by
/// hashing the batch contents — deterministic by design (rule D1: no
/// ambient randomness in src/), which is sound against forgers who cannot
/// predict a future batch's composition; an adversary who fully controls
/// the batch contents could in principle engineer cancellation, so a
/// `false` verdict is authoritative but callers treat `true` as "no forger
/// present" only for inputs that already bind honest context (certificate
/// digests do).
///
/// Returns true iff the combined equation holds. On false the caller
/// falls back to per-signature Verify to name the forger. Empty batches
/// verify trivially; a single-item batch degrades to Verify.
[[nodiscard]] bool VerifyBatch(const std::vector<BatchItem>& items,
                               const uint8_t* data, size_t len);

}  // namespace ed25519

namespace internal_ed25519 {

/// Kernel seams, exposed so tests/crypto_test.cc can cross-check the fast
/// paths against a plain double-and-add oracle built from the generic
/// group law below.

/// GF(2^255 - 19) element in five 51-bit limbs.
struct Fe {
  uint64_t v[5];
};
/// Extended twisted-Edwards point (X:Y:Z:T), T = XY/Z.
struct Point {
  Fe x, y, z, t;
};

[[nodiscard]] Point IdentityPoint();
[[nodiscard]] Point BasePoint();
[[nodiscard]] Point AddPoints(const Point& p, const Point& q);
[[nodiscard]] Point DoublePoint(const Point& p);
[[nodiscard]] ed25519::PublicKey EncodePoint(const Point& p);

/// Encoding of [scalar]B through the signed-radix-16 fixed-base table.
/// `scalar` is 32 little-endian bytes below 2^255.
[[nodiscard]] ed25519::PublicKey ScalarMulBase(const uint8_t scalar[32]);

/// Width-5 NAF of a 32-byte little-endian scalar below 2^255:
/// scalar = sum naf[i] 2^i, every nonzero digit odd with |d| <= 15, and
/// any two nonzero digits at least 5 positions apart.
void NafRecode(int8_t naf[256], const uint8_t scalar[32]);

/// Encoding of [s]B - [h]A as Verify computes it: both scalars split into
/// 128-bit halves over B, 2^128 B and the key's -A, -2^128 A tables. `key`
/// must hold a valid point; h and s are 32 little-endian bytes below 2^255.
[[nodiscard]] ed25519::PublicKey VerifyCombination(
    const ed25519::PrecomputedKey& key, const uint8_t h[32],
    const uint8_t s[32]);

}  // namespace internal_ed25519
}  // namespace massbft

#endif  // MASSBFT_CRYPTO_ED25519_H_
