#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/bytes.h"
#include "common/cpu.h"
#include "common/logging.h"

namespace massbft {

namespace {

constexpr uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

}  // namespace

std::string DigestToHex(const Digest& d) { return ToHex(d.data(), d.size()); }

namespace internal_sha256 {

// One compression round; callers rotate the register names instead of
// shuffling eight values per round.
#define MASSBFT_SHA_ROUND(a, b, c, d, e, f, g, h, i, w)                     \
  t1 = (h) + (Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25)) +                     \
       (((e) & (f)) ^ (~(e) & (g))) + kRound[i] + (w);                      \
  (d) += t1;                                                                \
  (h) = t1 + (Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22)) +                     \
        (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));

// Message schedule over a 16-word ring: w[i] from w[i-2], w[i-7], w[i-15],
// w[i-16].
#define MASSBFT_SHA_W(i)                                                    \
  (w[(i) & 15] +=                                                           \
   (Rotr(w[((i) - 2) & 15], 17) ^ Rotr(w[((i) - 2) & 15], 19) ^             \
    (w[((i) - 2) & 15] >> 10)) +                                            \
   w[((i) - 7) & 15] +                                                      \
   (Rotr(w[((i) - 15) & 15], 7) ^ Rotr(w[((i) - 15) & 15], 18) ^            \
    (w[((i) - 15) & 15] >> 3)))

#define MASSBFT_SHA_WLOAD(i) w[(i) & 15]

#define MASSBFT_SHA_8ROUNDS(i, W)                                           \
  MASSBFT_SHA_ROUND(a, b, c, d, e, f, g, h, (i) + 0, W((i) + 0))            \
  MASSBFT_SHA_ROUND(h, a, b, c, d, e, f, g, (i) + 1, W((i) + 1))            \
  MASSBFT_SHA_ROUND(g, h, a, b, c, d, e, f, (i) + 2, W((i) + 2))            \
  MASSBFT_SHA_ROUND(f, g, h, a, b, c, d, e, (i) + 3, W((i) + 3))            \
  MASSBFT_SHA_ROUND(e, f, g, h, a, b, c, d, (i) + 4, W((i) + 4))            \
  MASSBFT_SHA_ROUND(d, e, f, g, h, a, b, c, (i) + 5, W((i) + 5))            \
  MASSBFT_SHA_ROUND(c, d, e, f, g, h, a, b, (i) + 6, W((i) + 6))            \
  MASSBFT_SHA_ROUND(b, c, d, e, f, g, h, a, (i) + 7, W((i) + 7))

void ProcessBlocksScalar(uint32_t state[8], const uint8_t* data,
                         size_t n_blocks) {
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  while (n_blocks-- > 0) {
    uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = LoadBe32(data + 4 * i);
    uint32_t t1;
    MASSBFT_SHA_8ROUNDS(0, MASSBFT_SHA_WLOAD)
    MASSBFT_SHA_8ROUNDS(8, MASSBFT_SHA_WLOAD)
    MASSBFT_SHA_8ROUNDS(16, MASSBFT_SHA_W)
    MASSBFT_SHA_8ROUNDS(24, MASSBFT_SHA_W)
    MASSBFT_SHA_8ROUNDS(32, MASSBFT_SHA_W)
    MASSBFT_SHA_8ROUNDS(40, MASSBFT_SHA_W)
    MASSBFT_SHA_8ROUNDS(48, MASSBFT_SHA_W)
    MASSBFT_SHA_8ROUNDS(56, MASSBFT_SHA_W)
    a = state[0] += a;
    b = state[1] += b;
    c = state[2] += c;
    d = state[3] += d;
    e = state[4] += e;
    f = state[5] += f;
    g = state[6] += g;
    h = state[7] += h;
    data += 64;
  }
}

#undef MASSBFT_SHA_8ROUNDS
#undef MASSBFT_SHA_WLOAD
#undef MASSBFT_SHA_W
#undef MASSBFT_SHA_ROUND

#if defined(__x86_64__) || defined(__i386__)

// SHA-NI compression: two sha256rnds2 per 4 rounds, with the message
// schedule carried in four 4-word vectors (msgs[g & 3] holds words
// w[4g .. 4g+3]). Layout shuffles at entry/exit translate the linear
// a..h state into the ABEF/CDGH register split the instructions expect.
__attribute__((target("sha,sse4.1"))) void ProcessBlocksShaNi(
    uint32_t state[8], const uint8_t* data, size_t n_blocks) {
  const __m128i kBswapMask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);      // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  while (n_blocks-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    __m128i msgs[4];
    for (int i = 0; i < 4; ++i) {
      msgs[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kBswapMask);
    }

    // Full unroll keeps msgs[] in xmm registers across the 16 groups.
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i wk = _mm_add_epi32(
          msgs[g & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                           &kRound[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
      if (g < 12) {
        // w[i-7..i-4] via alignr, w[i-16]+sigma0(w[i-15]) via msg1,
        // sigma1(w[i-2]) folded in by msg2.
        __m128i t = _mm_alignr_epi8(msgs[(g + 3) & 3], msgs[(g + 2) & 3], 4);
        msgs[g & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(
                _mm_sha256msg1_epu32(msgs[g & 3], msgs[(g + 1) & 3]), t),
            msgs[(g + 3) & 3]);
      }
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);         // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);      // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);   // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);      // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#endif  // x86

namespace {

using BlockFn = void (*)(uint32_t*, const uint8_t*, size_t);

struct Dispatch {
  Sha256::Impl impl = Sha256::Impl::kScalar;
  BlockFn fn = &ProcessBlocksScalar;
};

Dispatch DispatchFor(Sha256::Impl impl) {
  Dispatch d;
  d.impl = impl;
#if defined(__x86_64__) || defined(__i386__)
  if (impl == Sha256::Impl::kShaNi) d.fn = &ProcessBlocksShaNi;
#endif
  return d;
}

Sha256::Impl ResolveImpl(const CpuFeatures& cpu) {
  return cpu.sha_ni ? Sha256::Impl::kShaNi : Sha256::Impl::kScalar;
}

Dispatch& MutableDispatch() {
  static Dispatch dispatch = [] {
    Sha256::Impl impl = ResolveImpl(GetCpuFeatures());
    MASSBFT_LOG(kInfo) << "sha256: dispatching compression to "
                       << Sha256::ImplName(impl);
    return DispatchFor(impl);
  }();
  return dispatch;
}

}  // namespace

}  // namespace internal_sha256

void Sha256::Reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;  // `data` may be null for an empty message.
  bit_count_ += static_cast<uint64_t>(len) * 8;
  const auto fn = internal_sha256::MutableDispatch().fn;
  if (buffer_len_ > 0) {
    size_t take = 64 - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) return;
    fn(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Bulk path: all whole blocks in one kernel call.
  size_t n_blocks = len / 64;
  if (n_blocks > 0) {
    fn(state_, data, n_blocks);
    data += n_blocks * 64;
    len -= n_blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Digest Sha256::Finish() {
  // Build the padded tail (0x80, zeros, 64-bit big-endian length) in a
  // local one- or two-block staging area and compress it in one call.
  uint8_t tail[128];
  size_t n = buffer_len_;
  std::memcpy(tail, buffer_, n);
  tail[n++] = 0x80;
  size_t total = (n <= 56) ? 64 : 128;
  std::memset(tail + n, 0, total - 8 - n);
  for (int i = 0; i < 8; ++i)
    tail[total - 8 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  internal_sha256::MutableDispatch().fn(state_, tail, total / 64);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

Sha256::Impl Sha256::ActiveImpl() {
  return internal_sha256::MutableDispatch().impl;
}

const char* Sha256::ImplName(Impl impl) {
  switch (impl) {
    case Impl::kScalar:
      return "scalar";
    case Impl::kShaNi:
      return "sha-ni";
  }
  return "unknown";
}

void Sha256::ForceImplForTest(Impl impl) {
  internal_sha256::MutableDispatch() = internal_sha256::DispatchFor(impl);
}

void Sha256::RestoreImplDispatch() {
  internal_sha256::MutableDispatch() = internal_sha256::DispatchFor(
      internal_sha256::ResolveImpl(GetCpuFeatures()));
}

}  // namespace massbft
