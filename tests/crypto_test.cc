#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "crypto/signature.h"

namespace massbft {
namespace {

// ---------------------------------------------------------------- SHA-256
// NIST FIPS 180-4 known-answer vectors.

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "SHA-256 block boundaries in interesting ways. 0123456789";
  Digest one_shot = Sha256::Hash(msg);
  // Feed in irregular pieces.
  for (size_t piece : {1u, 3u, 7u, 13u, 31u, 64u, 65u}) {
    Sha256 h;
    for (size_t i = 0; i < msg.size(); i += piece)
      h.Update(std::string_view(msg).substr(i, piece));
    EXPECT_EQ(h.Finish(), one_shot) << "piece size " << piece;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Digest incremental = [&] {
      Sha256 h;
      for (char c : msg) h.Update(std::string_view(&c, 1));
      return h.Finish();
    }();
    EXPECT_EQ(Sha256::Hash(msg), incremental) << "len " << len;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update("garbage");
  (void)h.Finish();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(DigestToHex(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --------------------------------------------- Compression-kernel parity

TEST(Sha256Test, ForcedScalarReproducesKnownAnswers) {
  // The NIST vectors above run under whatever implementation the
  // dispatcher picked; re-check them with the portable compression
  // function pinned (the path every CPU without SHA-NI runs).
  Sha256::ForceImplForTest(Sha256::Impl::kScalar);
  EXPECT_EQ(Sha256::ActiveImpl(), Sha256::Impl::kScalar);
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  Sha256::RestoreImplDispatch();
}

TEST(Sha256Test, ShaNiMatchesScalarOnKnownAnswersAndRandomInputs) {
#if defined(__x86_64__) || defined(__i386__)
  if (!GetCpuFeatures().sha_ni) GTEST_SKIP() << "CPU lacks SHA-NI";
  // Drive both kernels directly through the block interface: random
  // multi-block inputs (1..9 blocks) from random starting states must
  // produce bit-identical chaining values.
  Rng rng(0x54A);
  for (int round = 0; round < 50; ++round) {
    size_t n_blocks = 1 + rng.NextBelow(9);
    Bytes blocks(64 * n_blocks);
    for (auto& b : blocks) b = static_cast<uint8_t>(rng.NextBelow(256));
    uint32_t scalar_state[8], shani_state[8];
    for (int i = 0; i < 8; ++i) {
      scalar_state[i] = static_cast<uint32_t>(rng.NextBelow(1ull << 32));
      shani_state[i] = scalar_state[i];
    }
    internal_sha256::ProcessBlocksScalar(scalar_state, blocks.data(),
                                         n_blocks);
    internal_sha256::ProcessBlocksShaNi(shani_state, blocks.data(), n_blocks);
    for (int i = 0; i < 8; ++i)
      ASSERT_EQ(shani_state[i], scalar_state[i])
          << "word " << i << " round " << round;
  }
  // And end to end: one-shot digests of random lengths agree between the
  // pinned implementations (padding/buffering paths included).
  for (size_t len : {0u, 1u, 55u, 56u, 64u, 65u, 127u, 128u, 1000u, 4096u}) {
    Bytes data(len);
    for (auto& b : data) b = static_cast<uint8_t>(rng.NextBelow(256));
    Sha256::ForceImplForTest(Sha256::Impl::kScalar);
    Digest scalar = Sha256::Hash(data);
    Sha256::ForceImplForTest(Sha256::Impl::kShaNi);
    Digest shani = Sha256::Hash(data);
    Sha256::RestoreImplDispatch();
    EXPECT_EQ(scalar, shani) << "len " << len;
  }
#else
  GTEST_SKIP() << "non-x86 build";
#endif
}

// ---------------------------------------------------------------- HMAC
// RFC 4231 test vectors.

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Digest mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(DigestToHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  Digest mac = HmacSha256(key, ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(DigestToHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  Digest mac = HmacSha256(key, data);
  EXPECT_EQ(DigestToHex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes key(131, 0xaa);  // RFC 4231 case 6.
  Digest mac = HmacSha256(
      key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(DigestToHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---------------------------------------------------------------- Signatures

TEST(SignatureTest, SignVerifyRoundTrip) {
  KeyRegistry registry;
  NodeId node{1, 3};
  registry.RegisterNode(node);
  Bytes msg = ToBytes("entry digest payload");
  Signature sig = registry.Sign(node, msg);
  EXPECT_TRUE(registry.Verify(node, msg, sig));
}

TEST(SignatureTest, TamperedMessageFails) {
  KeyRegistry registry;
  NodeId node{0, 0};
  registry.RegisterNode(node);
  Bytes msg = ToBytes("original");
  Signature sig = registry.Sign(node, msg);
  Bytes tampered = ToBytes("originaX");
  EXPECT_FALSE(registry.Verify(node, tampered, sig));
}

TEST(SignatureTest, WrongSignerFails) {
  KeyRegistry registry;
  NodeId a{0, 1}, b{0, 2};
  registry.RegisterNode(a);
  registry.RegisterNode(b);
  Bytes msg = ToBytes("payload");
  Signature sig = registry.Sign(a, msg);
  EXPECT_FALSE(registry.Verify(b, msg, sig));
}

TEST(SignatureTest, UnregisteredVerifierFails) {
  KeyRegistry registry;
  NodeId a{0, 1};
  registry.RegisterNode(a);
  Signature sig = registry.Sign(a, ToBytes("m"));
  EXPECT_FALSE(registry.Verify(NodeId{5, 5}, ToBytes("m"), sig));
}

TEST(SignatureTest, RegistrationIsIdempotentAndDeterministic) {
  KeyRegistry r1, r2;
  NodeId node{2, 4};
  r1.RegisterNode(node);
  r1.RegisterNode(node);
  r2.RegisterNode(node);
  EXPECT_EQ(r1.num_nodes(), 1u);
  // Two registries derive the same key (reproducible clusters).
  Bytes msg = ToBytes("cross-registry");
  EXPECT_EQ(r1.Sign(node, msg), r2.Sign(node, msg));
}

TEST(SignatureTest, SignatureIs64Bytes) {
  // Wire-size fidelity with ED25519.
  EXPECT_EQ(sizeof(Signature), 64u);
}

TEST(NodeIdTest, PackUnpackRoundTrip) {
  NodeId id{513, 42};
  EXPECT_EQ(NodeId::FromPacked(id.Packed()), id);
  EXPECT_LT(NodeId({0, 5}), NodeId({1, 0}));
}

// ---------------------------------------------------------------- SHA-512
// NIST FIPS 180-4 known-answer vectors.

std::string Hex512(const Digest512& d) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(128);
  for (uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

TEST(Sha512Test, EmptyString) {
  EXPECT_EQ(Hex512(Sha512::Hash("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  EXPECT_EQ(Hex512(Sha512::Hash("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  EXPECT_EQ(Hex512(Sha512::Hash(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, MillionAIncremental) {
  // Exercises block buffering across many Update() calls.
  Sha512 h;
  std::string chunk(999, 'a');  // Prime length: never block-aligned.
  for (int i = 0; i < 1001; ++i) h.Update(chunk);
  h.Update(std::string(1, 'a'));  // 999 * 1001 + 1 = 1,000,000.
  EXPECT_EQ(Hex512(h.Finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

// ---------------------------------------------------------------- ed25519
// RFC 8032 §7.1 test vectors: public-key derivation, signing, verifying.

struct Rfc8032Vector {
  const char* secret;
  const char* public_key;
  const char* message;
  const char* sig;
};

constexpr Rfc8032Vector kRfc8032Vectors[] = {
    // TEST 1 (empty message)
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    // TEST 2 (one byte)
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    // TEST 3 (two bytes)
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
    // TEST SHA(abc): message = SHA-512("abc")
    {"833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
     "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
     "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
     "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
     "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
     "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"},
};

Bytes FromHex(const std::string& hex) {
  Bytes out(hex.size() / 2);
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<uint8_t>(
        std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  return out;
}

TEST(Ed25519Test, Rfc8032Vectors) {
  for (const Rfc8032Vector& vec : kRfc8032Vectors) {
    Bytes secret_bytes = FromHex(vec.secret);
    Bytes pk_bytes = FromHex(vec.public_key);
    Bytes msg = FromHex(vec.message);
    Bytes sig_bytes = FromHex(vec.sig);

    ed25519::SecretKey secret;
    std::memcpy(secret.data(), secret_bytes.data(), secret.size());
    ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
    EXPECT_EQ(Bytes(pk.begin(), pk.end()), pk_bytes);

    ed25519::Sig sig = ed25519::Sign(secret, pk, msg.data(), msg.size());
    EXPECT_EQ(Bytes(sig.begin(), sig.end()), sig_bytes);
    EXPECT_TRUE(ed25519::Verify(pk, msg.data(), msg.size(), sig));
  }
}

TEST(Ed25519Test, TamperedInputsFail) {
  ed25519::SecretKey secret{};
  secret[0] = 42;
  ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
  Bytes msg = ToBytes("payload");
  ed25519::Sig sig = ed25519::Sign(secret, pk, msg.data(), msg.size());
  ASSERT_TRUE(ed25519::Verify(pk, msg.data(), msg.size(), sig));

  for (size_t bit : {size_t{0}, size_t{250}, size_t{260}, size_t{511}}) {
    ed25519::Sig bad = sig;
    bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(ed25519::Verify(pk, msg.data(), msg.size(), bad));
  }
  Bytes other = ToBytes("payloaX");
  EXPECT_FALSE(ed25519::Verify(pk, other.data(), other.size(), sig));
}

TEST(Ed25519Test, MalleableScalarRejected) {
  // RFC 8032 MUST: reject s >= L. Adding the group order to s yields a
  // second encoding of the "same" signature; strict verifiers refuse it.
  ed25519::SecretKey secret{};
  secret[0] = 7;
  ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
  Bytes msg = ToBytes("malleability");
  ed25519::Sig sig = ed25519::Sign(secret, pk, msg.data(), msg.size());
  ASSERT_TRUE(ed25519::Verify(pk, msg.data(), msg.size(), sig));

  static constexpr uint8_t kL[32] = {
      0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
      0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
      0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    unsigned v = sig[32 + i] + kL[i] + carry;
    sig[32 + i] = static_cast<uint8_t>(v);
    carry = v >> 8;
  }
  EXPECT_FALSE(ed25519::Verify(pk, msg.data(), msg.size(), sig));
}

TEST(Ed25519Test, NonCanonicalPointRejected) {
  // A public key whose y coordinate is >= p (here: p + 1, i.e. the
  // encoding of 1 with all the high bytes of p added back) must not parse.
  ed25519::SecretKey secret{};
  secret[0] = 9;
  ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
  Bytes msg = ToBytes("canonical");
  ed25519::Sig sig = ed25519::Sign(secret, pk, msg.data(), msg.size());

  ed25519::PublicKey non_canonical;
  non_canonical.fill(0xFF);
  non_canonical[0] = 0xEE;   // p + 1: 2^255 - 19 + 1, little-endian.
  non_canonical[31] = 0x7F;  // Sign bit clear.
  EXPECT_FALSE(
      ed25519::Verify(non_canonical, msg.data(), msg.size(), sig));
}

TEST(Ed25519Test, BatchVerifiesAndPinpointsForgery) {
  Bytes digest = ToBytes("one shared certificate digest............");
  constexpr int kN = 7;
  std::vector<ed25519::PublicKey> pks(kN);
  std::vector<ed25519::Sig> sigs(kN);
  for (int i = 0; i < kN; ++i) {
    ed25519::SecretKey secret{};
    secret[0] = static_cast<uint8_t>(i + 1);
    pks[i] = ed25519::DerivePublicKey(secret);
    sigs[i] = ed25519::Sign(secret, pks[i], digest.data(), digest.size());
  }
  std::vector<ed25519::BatchItem> items;
  for (int i = 0; i < kN; ++i) items.push_back({&pks[i], &sigs[i]});
  EXPECT_TRUE(ed25519::VerifyBatch(items, digest.data(), digest.size()));

  // One forgery poisons the whole batch; scalar Verify pinpoints it.
  sigs[4][17] ^= 0x20;
  EXPECT_FALSE(ed25519::VerifyBatch(items, digest.data(), digest.size()));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(ed25519::Verify(pks[i], digest.data(), digest.size(), sigs[i]),
              i != 4);
  }

  // Empty and single-item batches degrade gracefully.
  EXPECT_TRUE(ed25519::VerifyBatch({}, digest.data(), digest.size()));
  std::vector<ed25519::BatchItem> one = {{&pks[0], &sigs[0]}};
  EXPECT_TRUE(ed25519::VerifyBatch(one, digest.data(), digest.size()));
}

TEST(Ed25519Test, GoldenSignatureDigest) {
  // 256 (public key, signature) pairs over distinct keys and message
  // lengths 0..255, hashed together. RFC 8032 signing is deterministic, so
  // any kernel rewrite must reproduce this digest byte for byte.
  Sha256 acc;
  for (int i = 0; i < 256; ++i) {
    const Digest seed = Sha256::Hash("golden-key:" + std::to_string(i));
    ed25519::SecretKey secret;
    std::memcpy(secret.data(), seed.data(), secret.size());
    const ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
    const Bytes msg(static_cast<size_t>(i), static_cast<uint8_t>(7 * i + 1));
    const ed25519::Sig sig =
        ed25519::Sign(secret, pk, msg.data(), msg.size());
    acc.Update(pk.data(), pk.size());
    acc.Update(sig.data(), sig.size());
  }
  EXPECT_EQ(DigestToHex(acc.Finish()),
            "0bbf85bcbb60b055195dc41dc8beb633f4fec7ee83fa3a132ef272364d176319");
}

// ------------------------------------------------- Kernel vs oracle
// The fast paths (fixed-base table, NAF recoding, per-key tables, batch
// multi-scalar multiply) cross-checked against plain reference algorithms.

/// [scalar]P by MSB-first double-and-add over the generic group law.
internal_ed25519::Point DoubleAndAdd(const uint8_t scalar[32],
                                     const internal_ed25519::Point& p) {
  using namespace internal_ed25519;
  Point acc = IdentityPoint();
  for (int bit = 255; bit >= 0; --bit) {
    acc = DoublePoint(acc);
    if ((scalar[bit / 8] >> (bit % 8)) & 1) acc = AddPoints(acc, p);
  }
  return acc;
}

/// [scalar]B.
internal_ed25519::Point DoubleAndAdd(const uint8_t scalar[32]) {
  return DoubleAndAdd(scalar, internal_ed25519::BasePoint());
}

/// Seeded scalars below 2^255 plus the edge cases the kernels must
/// handle: 0, 1, L-1, 2^252 and the largest clamped secret 2^255 - 8.
std::vector<std::array<uint8_t, 32>> KernelTestScalars(int random_count) {
  std::vector<std::array<uint8_t, 32>> scalars;
  std::array<uint8_t, 32> s{};
  scalars.push_back(s);  // 0
  s[0] = 1;
  scalars.push_back(s);  // 1
  s = {0xec, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
       0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
       0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};
  scalars.push_back(s);  // L - 1
  s = {};
  s[31] = 0x10;
  scalars.push_back(s);  // 2^252
  s.fill(0xff);
  s[0] = 0xf8;
  s[31] = 0x7f;
  scalars.push_back(s);  // 2^255 - 8
  Rng rng(0xED25519);
  for (int i = 0; i < random_count; ++i) {
    for (uint8_t& b : s) b = static_cast<uint8_t>(rng.NextU64());
    s[31] &= 0x7f;
    scalars.push_back(s);
  }
  return scalars;
}

TEST(Ed25519Test, FixedBaseMatchesDoubleAndAdd) {
  for (const auto& s : KernelTestScalars(1000)) {
    ASSERT_EQ(internal_ed25519::ScalarMulBase(s.data()),
              internal_ed25519::EncodePoint(DoubleAndAdd(s.data())))
        << "scalar " << ToHex(s.data(), s.size());
  }
}

TEST(Ed25519Test, NafRecodingReconstructsItsScalar) {
  for (const auto& s : KernelTestScalars(1000)) {
    int8_t naf[256];
    internal_ed25519::NafRecode(naf, s.data());
    int64_t acc[33] = {0};  // sum naf[i] 2^i in base-256 digits
    int last = -5;
    for (int i = 0; i < 256; ++i) {
      if (naf[i] == 0) continue;
      ASSERT_NE(naf[i] % 2, 0) << "even digit at " << i;
      ASSERT_LE(std::abs(naf[i]), 15) << "digit out of range at " << i;
      ASSERT_GE(i - last, 5) << "adjacent nonzero digits at " << i;
      last = i;
      acc[i / 8] += static_cast<int64_t>(naf[i]) * (int64_t{1} << (i % 8));
    }
    for (int j = 0; j < 32; ++j) {
      const int64_t carry = acc[j] >> 8;  // floor division
      acc[j] -= carry * 256;
      acc[j + 1] += carry;
      ASSERT_EQ(acc[j], s[j]) << "byte " << j;
    }
    ASSERT_EQ(acc[32], 0);
  }
}

TEST(Ed25519Test, SplitScalarVerifyMatchesDoubleAndAdd) {
  using Scalar = std::array<uint8_t, 32>;
  const Scalar l_minus_1 = {0xec, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                            0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                            0,    0,    0,    0,    0,    0,    0,    0,
                            0,    0,    0,    0,    0,    0,    0,    0x10};
  Scalar l_minus_2 = l_minus_1;
  l_minus_2[0] -= 1;
  Scalar two_128{};
  two_128[16] = 1;
  Scalar below_two_128{};
  std::fill(below_two_128.begin(), below_two_128.begin() + 16, 0xff);
  Scalar one{};
  one[0] = 1;

  // h: edge cases around the 2^128 split and L, then random values below
  // and above 2^128. s: near L, plus a random one.
  std::vector<Scalar> hs = {Scalar{}, one, below_two_128, two_128, l_minus_1};
  Rng rng(0x5A11);
  for (int i = 0; i < 8; ++i) {
    Scalar h{};
    const int bytes = i % 2 == 0 ? 16 : 32;
    for (int b = 0; b < bytes; ++b) h[b] = static_cast<uint8_t>(rng.NextU64());
    h[31] &= 0x0f;  // Below 2^252 < L.
    hs.push_back(h);
  }
  Scalar random_s{};
  for (uint8_t& b : random_s) b = static_cast<uint8_t>(rng.NextU64());
  random_s[31] &= 0x0f;
  const std::vector<Scalar> ss = {l_minus_1, l_minus_2, random_s};

  for (uint8_t seed = 1; seed <= 2; ++seed) {
    ed25519::SecretKey secret{};
    secret[0] = seed;
    const auto key = ed25519::PrecomputeSigningKey(secret);
    // A = [a]B with a the clamped secret scalar, and -A = [L-1]A.
    const Digest512 expanded = Sha512::Hash(secret.data(), secret.size());
    Scalar a;
    std::memcpy(a.data(), expanded.data(), 32);
    a[0] &= 248;
    a[31] &= 127;
    a[31] |= 64;
    const internal_ed25519::Point pub = DoubleAndAdd(a.data());
    ASSERT_EQ(internal_ed25519::EncodePoint(pub),
              ed25519::DerivePublicKey(secret));
    const internal_ed25519::Point neg_pub = DoubleAndAdd(l_minus_1.data(), pub);
    // Signing keys build their 2^128 (-A) table by a fixed-base multiply,
    // verify-only keys by doubling -A: both must match the oracle.
    const auto verify_key =
        ed25519::PrecomputeVerifyKey(ed25519::DerivePublicKey(secret));

    for (const Scalar& s : ss) {
      const internal_ed25519::Point sb = DoubleAndAdd(s.data());
      for (const Scalar& h : hs) {
        const ed25519::PublicKey expected = internal_ed25519::EncodePoint(
            internal_ed25519::AddPoints(sb, DoubleAndAdd(h.data(), neg_pub)));
        for (const auto* k : {key.get(), verify_key.get()}) {
          ASSERT_EQ(internal_ed25519::VerifyCombination(*k, h.data(), s.data()),
                    expected)
              << "h " << ToHex(h.data(), h.size()) << " s "
              << ToHex(s.data(), s.size());
        }
      }
    }
  }
}

TEST(Ed25519Test, ConcurrentVerifySharesPrecomputedKey) {
  // An RFC 8032 vector: known bytes, so no curve arithmetic runs before
  // the threads start and each thread's first Verify races the one-time
  // build of the static curve tables.
  const Rfc8032Vector& vec = kRfc8032Vectors[1];
  const Bytes pk_bytes = FromHex(vec.public_key);
  const Bytes sig_bytes = FromHex(vec.sig);
  const Bytes rfc_msg = FromHex(vec.message);
  ed25519::PublicKey rfc_pk;
  ed25519::Sig rfc_sig;
  std::memcpy(rfc_pk.data(), pk_bytes.data(), rfc_pk.size());
  std::memcpy(rfc_sig.data(), sig_bytes.data(), rfc_sig.size());

  // The shared keys and their signatures are built once, by whichever
  // thread gets there first, and then read by all four without a lock.
  constexpr int kKeys = 3;
  const Bytes digest = ToBytes("shared certificate digest");
  std::vector<std::shared_ptr<const ed25519::PrecomputedKey>> keys;
  std::vector<ed25519::Sig> sigs(kKeys);
  std::once_flag built;
  auto build = [&] {
    for (int i = 0; i < kKeys; ++i) {
      ed25519::SecretKey secret{};
      secret[0] = static_cast<uint8_t>(40 + i);
      keys.push_back(ed25519::PrecomputeSigningKey(secret));
      sigs[i] = ed25519::Sign(*keys[i], digest.data(), digest.size());
    }
  };

  std::atomic<int> failures{0};
  std::latch start(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      if (!ed25519::Verify(rfc_pk, rfc_msg.data(), rfc_msg.size(), rfc_sig))
        ++failures;
      std::call_once(built, build);
      std::vector<ed25519::BatchItem> items;
      for (int i = 0; i < kKeys; ++i)
        items.push_back({nullptr, &sigs[i], keys[i].get()});
      for (int round = 0; round < 8; ++round) {
        const int i = (t + round) % kKeys;
        if (!ed25519::Verify(*keys[i], digest.data(), digest.size(), sigs[i]))
          ++failures;
        // A valid signature under the wrong key must fail.
        if (ed25519::Verify(*keys[(i + 1) % kKeys], digest.data(),
                            digest.size(), sigs[i]))
          ++failures;
        if (!ed25519::VerifyBatch(items, digest.data(), digest.size()))
          ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Ed25519Test, PrecomputedKeyAgreesWithRawKey) {
  const Bytes msg = ToBytes("precomputed vs raw");
  const Bytes other = ToBytes("precomputed vs raW");
  for (uint8_t seed = 1; seed <= 8; ++seed) {
    ed25519::SecretKey secret{};
    secret[0] = seed;
    const ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
    const auto signing = ed25519::PrecomputeSigningKey(secret);
    const auto verifying = ed25519::PrecomputeVerifyKey(pk);
    const ed25519::Sig sig = ed25519::Sign(*signing, msg.data(), msg.size());
    EXPECT_EQ(sig, ed25519::Sign(secret, pk, msg.data(), msg.size()));

    ed25519::Sig bad_s = sig;
    bad_s[40] ^= 0x04;
    ed25519::Sig bad_r = sig;
    bad_r[3] ^= 0x80;
    for (const ed25519::Sig& candidate : {sig, bad_s, bad_r}) {
      for (const Bytes* m : {&msg, &other}) {
        const bool raw = ed25519::Verify(pk, m->data(), m->size(), candidate);
        EXPECT_EQ(ed25519::Verify(*signing, m->data(), m->size(), candidate),
                  raw);
        EXPECT_EQ(ed25519::Verify(*verifying, m->data(), m->size(), candidate),
                  raw);
      }
    }
  }

  // Keys that are not canonical curve points: both paths reject. y = 2 is
  // not on the curve ((y^2 - 1) / (d y^2 + 1) is a non-square); the second
  // encoding is y = p + 1; y = 3..6 are points, so the loop covers both
  // outcomes of decompression.
  ed25519::SecretKey secret{};
  secret[0] = 3;
  const ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
  const ed25519::Sig sig = ed25519::Sign(secret, pk, msg.data(), msg.size());
  ed25519::PublicKey non_canonical;
  non_canonical.fill(0xFF);
  non_canonical[0] = 0xEE;
  non_canonical[31] = 0x7F;
  std::vector<ed25519::PublicKey> odd_keys = {non_canonical};
  for (uint8_t y = 2; y <= 6; ++y) {
    ed25519::PublicKey key{};
    key[0] = y;
    odd_keys.push_back(key);
  }
  for (const ed25519::PublicKey& key : odd_keys) {
    const bool raw = ed25519::Verify(key, msg.data(), msg.size(), sig);
    EXPECT_FALSE(raw);
    EXPECT_EQ(ed25519::Verify(*ed25519::PrecomputeVerifyKey(key), msg.data(),
                              msg.size(), sig),
              raw);
  }
}

TEST(Ed25519Test, BatchForgeryAtEachIndexIsCaughtAndNamed) {
  const Bytes digest = ToBytes("certificate digest for forgeries");
  constexpr int kN = 7;
  std::vector<std::shared_ptr<const ed25519::PrecomputedKey>> keys;
  std::vector<ed25519::PublicKey> pks(kN);
  std::vector<ed25519::Sig> sigs(kN);
  for (int i = 0; i < kN; ++i) {
    ed25519::SecretKey secret{};
    secret[0] = static_cast<uint8_t>(100 + i);
    keys.push_back(ed25519::PrecomputeSigningKey(secret));
    pks[i] = ed25519::DerivePublicKey(secret);
    sigs[i] = ed25519::Sign(*keys[i], digest.data(), digest.size());
  }
  // Alternate precomputed and raw-byte items so both key paths take part.
  std::vector<ed25519::BatchItem> items(kN);
  for (int i = 0; i < kN; ++i) {
    items[i] = i % 2 == 0 ? ed25519::BatchItem{nullptr, &sigs[i], keys[i].get()}
                          : ed25519::BatchItem{&pks[i], &sigs[i], nullptr};
  }
  ASSERT_TRUE(ed25519::VerifyBatch(items, digest.data(), digest.size()));

  const Bytes wrong = ToBytes("a different digest, same length.");
  for (int forged = 0; forged < kN; ++forged) {
    const ed25519::Sig honest = sigs[forged];
    // A valid signature over the wrong message: well-formed, so only the
    // group equation can catch it.
    sigs[forged] = ed25519::Sign(*keys[forged], wrong.data(), wrong.size());
    EXPECT_FALSE(ed25519::VerifyBatch(items, digest.data(), digest.size()))
        << "forgery at " << forged;
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(ed25519::Verify(*keys[i], digest.data(), digest.size(),
                                sigs[i]),
                i != forged)
          << "forgery at " << forged << ", checked " << i;
    }
    sigs[forged] = honest;
  }
  EXPECT_TRUE(ed25519::VerifyBatch(items, digest.data(), digest.size()));
}

// ----------------------------------------------------- SignatureScheme seam

TEST(SignatureSchemeTest, Ed25519RegistryRoundTrip) {
  KeyRegistry registry(CryptoScheme::kEd25519);
  EXPECT_STREQ(registry.scheme_name(), "ed25519");
  NodeId node{1, 3};
  registry.RegisterNode(node);
  Bytes msg = ToBytes("entry digest payload");
  Signature sig = registry.Sign(node, msg);
  EXPECT_TRUE(registry.Verify(node, msg, sig));
  Bytes tampered = ToBytes("entry digest payloaX");
  EXPECT_FALSE(registry.Verify(node, tampered, sig));
  EXPECT_FALSE(registry.Verify(NodeId{1, 4}, msg, sig));  // Unregistered.
}

TEST(SignatureSchemeTest, SchemesProduceDistinctSignatures) {
  KeyRegistry hmac(CryptoScheme::kSimulatedHmac);
  KeyRegistry ed(CryptoScheme::kEd25519);
  NodeId node{0, 0};
  hmac.RegisterNode(node);
  ed.RegisterNode(node);
  Bytes msg = ToBytes("same payload");
  EXPECT_NE(hmac.Sign(node, msg), ed.Sign(node, msg));
  // Cross-scheme verification must fail, not crash.
  EXPECT_FALSE(hmac.Verify(node, msg, ed.Sign(node, msg)));
  EXPECT_FALSE(ed.Verify(node, msg, hmac.Sign(node, msg)));
}

TEST(SignatureSchemeTest, RegistryBatchVerifyCountsStats) {
  KeyRegistry registry(CryptoScheme::kEd25519);
  Bytes digest = ToBytes("certificate digest 32 bytes long");
  std::vector<NodeId> nodes;
  std::vector<Signature> sigs;
  for (uint16_t i = 0; i < 5; ++i) {
    NodeId node{2, i};
    registry.RegisterNode(node);
    nodes.push_back(node);
    sigs.push_back(registry.Sign(node, digest));
  }
  std::vector<const Signature*> sig_ptrs;
  for (const Signature& s : sigs) sig_ptrs.push_back(&s);
  EXPECT_TRUE(
      registry.VerifyBatch(nodes, digest.data(), digest.size(), sig_ptrs));
  VerifyStats stats = registry.verify_stats();
  EXPECT_EQ(stats.batch_calls, 1u);
  EXPECT_EQ(stats.batch_signatures, 5u);
  EXPECT_EQ(stats.batch_fallbacks, 0u);
  EXPECT_GT(registry.verify_batch_ratio(), 0.99);

  // A forged member fails the batch and records the fallback.
  sigs[1][0] ^= 1;
  EXPECT_FALSE(
      registry.VerifyBatch(nodes, digest.data(), digest.size(), sig_ptrs));
  stats = registry.verify_stats();
  EXPECT_EQ(stats.batch_fallbacks, 1u);
}

TEST(SignatureSchemeTest, HmacBatchLoopsScalar) {
  KeyRegistry registry(CryptoScheme::kSimulatedHmac);
  Bytes digest = ToBytes("hmac digest");
  std::vector<NodeId> nodes;
  std::vector<Signature> sigs;
  for (uint16_t i = 0; i < 3; ++i) {
    NodeId node{0, i};
    registry.RegisterNode(node);
    nodes.push_back(node);
    sigs.push_back(registry.Sign(node, digest));
  }
  std::vector<const Signature*> sig_ptrs;
  for (const Signature& s : sigs) sig_ptrs.push_back(&s);
  EXPECT_TRUE(
      registry.VerifyBatch(nodes, digest.data(), digest.size(), sig_ptrs));
  sigs[2][5] ^= 4;
  EXPECT_FALSE(
      registry.VerifyBatch(nodes, digest.data(), digest.size(), sig_ptrs));
}

TEST(SignatureSchemeTest, Ed25519DerivationIsDeterministic) {
  KeyRegistry r1(CryptoScheme::kEd25519), r2(CryptoScheme::kEd25519);
  NodeId node{3, 1};
  r1.RegisterNode(node);
  r2.RegisterNode(node);
  Bytes msg = ToBytes("cross-registry");
  // ed25519 signing is deterministic (RFC 8032), so identical derived
  // keys produce identical signatures.
  EXPECT_EQ(r1.Sign(node, msg), r2.Sign(node, msg));
}

}  // namespace
}  // namespace massbft
