#include "crypto/ed25519.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "crypto/sha512.h"

namespace massbft {
namespace ed25519 {
namespace {

// ------------------------------------------------------------------ Field
// GF(2^255 - 19) in five 51-bit limbs. Products are accumulated in
// unsigned __int128; reduction folds the 2^255 overflow back in times 19.
// Limb bounds: FeMul/FeSq/FeSub outputs are "tight" (below 2^51 + 2^14);
// FeAdd skips the carry pass, so its output is below 2^53 when its inputs
// are tight and below 2^54 when one is itself a sum. Multiplication
// tolerates inputs up to 2^54 (accumulators stay under 2^115 and the
// final 19 * carry under 2^64); FeSub tolerates any g below 2^53 - 76.
// The point formulas below never chain more than two additions.

using u64 = uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask = (u64{1} << 51) - 1;

using internal_ed25519::Fe;

constexpr Fe kFeZero = {{0, 0, 0, 0, 0}};
constexpr Fe kFeOne = {{1, 0, 0, 0, 0}};

void FeFromBytes(Fe* h, const uint8_t s[32]) {
  u64 limb[4];
  for (int i = 0; i < 4; ++i) {
    limb[i] = 0;
    for (int j = 0; j < 8; ++j)
      limb[i] |= static_cast<u64>(s[8 * i + j]) << (8 * j);
  }
  h->v[0] = limb[0] & kMask;
  h->v[1] = ((limb[0] >> 51) | (limb[1] << 13)) & kMask;
  h->v[2] = ((limb[1] >> 38) | (limb[2] << 26)) & kMask;
  h->v[3] = ((limb[2] >> 25) | (limb[3] << 39)) & kMask;
  h->v[4] = (limb[3] >> 12) & kMask;  // Drops bit 255 (the sign bit).
}

/// Canonical serialization: fully reduces into [0, p) first.
void FeToBytes(uint8_t s[32], const Fe& f) {
  u64 t[5] = {f.v[0], f.v[1], f.v[2], f.v[3], f.v[4]};
  // Two weak-carry passes bring every limb under 2^51 (+ epsilon on t0).
  for (int pass = 0; pass < 2; ++pass) {
    t[1] += t[0] >> 51;
    t[0] &= kMask;
    t[2] += t[1] >> 51;
    t[1] &= kMask;
    t[3] += t[2] >> 51;
    t[2] &= kMask;
    t[4] += t[3] >> 51;
    t[3] &= kMask;
    t[0] += 19 * (t[4] >> 51);
    t[4] &= kMask;
  }
  // Canonicalize: offset by 19 then by 2^255 - 19 - 19 so the subtraction
  // of p happens exactly when the value was >= p (curve25519-donna trick).
  t[0] += 19;
  t[1] += t[0] >> 51;
  t[0] &= kMask;
  t[2] += t[1] >> 51;
  t[1] &= kMask;
  t[3] += t[2] >> 51;
  t[2] &= kMask;
  t[4] += t[3] >> 51;
  t[3] &= kMask;
  t[0] += 19 * (t[4] >> 51);
  t[4] &= kMask;

  t[0] += (kMask + 1) - 19;
  t[1] += kMask;
  t[2] += kMask;
  t[3] += kMask;
  t[4] += kMask;
  t[1] += t[0] >> 51;
  t[0] &= kMask;
  t[2] += t[1] >> 51;
  t[1] &= kMask;
  t[3] += t[2] >> 51;
  t[2] &= kMask;
  t[4] += t[3] >> 51;
  t[3] &= kMask;
  t[4] &= kMask;  // Drop the 2^255 offset bit.

  u64 out[4];
  out[0] = t[0] | (t[1] << 51);
  out[1] = (t[1] >> 13) | (t[2] << 38);
  out[2] = (t[2] >> 26) | (t[3] << 25);
  out[3] = (t[3] >> 39) | (t[4] << 12);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 8; ++j)
      s[8 * i + j] = static_cast<uint8_t>(out[i] >> (8 * j));
}

/// One carry pass: brings every limb back to a tight bound.
void FeWeakReduce(Fe* h) {
  h->v[1] += h->v[0] >> 51;
  h->v[0] &= kMask;
  h->v[2] += h->v[1] >> 51;
  h->v[1] &= kMask;
  h->v[3] += h->v[2] >> 51;
  h->v[2] &= kMask;
  h->v[4] += h->v[3] >> 51;
  h->v[3] &= kMask;
  h->v[0] += 19 * (h->v[4] >> 51);
  h->v[4] &= kMask;
}

/// h = f + g without a carry pass (see the limb bounds above).
void FeAdd(Fe* h, const Fe& f, const Fe& g) {
  for (int i = 0; i < 5; ++i) h->v[i] = f.v[i] + g.v[i];
}

/// h = f - g, computed as f + 4p - g so limbs never underflow (4p because
/// g may be an unreduced sum), then carried back to tight.
void FeSub(Fe* h, const Fe& f, const Fe& g) {
  h->v[0] = f.v[0] + 0x1FFFFFFFFFFFB4u - g.v[0];
  h->v[1] = f.v[1] + 0x1FFFFFFFFFFFFCu - g.v[1];
  h->v[2] = f.v[2] + 0x1FFFFFFFFFFFFCu - g.v[2];
  h->v[3] = f.v[3] + 0x1FFFFFFFFFFFFCu - g.v[3];
  h->v[4] = f.v[4] + 0x1FFFFFFFFFFFFCu - g.v[4];
  FeWeakReduce(h);
}

void FeNeg(Fe* h, const Fe& f) { FeSub(h, kFeZero, f); }

// FeCarry, FeMul and FeSq are forced inline so the independent products
// of a point formula can interleave (about 10% on verification).
[[gnu::always_inline]] inline void FeCarry(Fe* h, u128 t0, u128 t1, u128 t2,
                                           u128 t3, u128 t4) {
  u64 c;
  u64 r0 = static_cast<u64>(t0) & kMask;
  c = static_cast<u64>(t0 >> 51);
  t1 += c;
  u64 r1 = static_cast<u64>(t1) & kMask;
  c = static_cast<u64>(t1 >> 51);
  t2 += c;
  u64 r2 = static_cast<u64>(t2) & kMask;
  c = static_cast<u64>(t2 >> 51);
  t3 += c;
  u64 r3 = static_cast<u64>(t3) & kMask;
  c = static_cast<u64>(t3 >> 51);
  t4 += c;
  u64 r4 = static_cast<u64>(t4) & kMask;
  c = static_cast<u64>(t4 >> 51);
  r0 += c * 19;
  c = r0 >> 51;
  r0 &= kMask;
  r1 += c;
  h->v[0] = r0;
  h->v[1] = r1;
  h->v[2] = r2;
  h->v[3] = r3;
  h->v[4] = r4;
}

[[gnu::always_inline]] inline void FeMul(Fe* h, const Fe& f, const Fe& g) {
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3], g4 = g.v[4];
  const u64 g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
            g4_19 = 19 * g4;
  u128 t0 = static_cast<u128>(f0) * g0 + static_cast<u128>(f1) * g4_19 +
            static_cast<u128>(f2) * g3_19 + static_cast<u128>(f3) * g2_19 +
            static_cast<u128>(f4) * g1_19;
  u128 t1 = static_cast<u128>(f0) * g1 + static_cast<u128>(f1) * g0 +
            static_cast<u128>(f2) * g4_19 + static_cast<u128>(f3) * g3_19 +
            static_cast<u128>(f4) * g2_19;
  u128 t2 = static_cast<u128>(f0) * g2 + static_cast<u128>(f1) * g1 +
            static_cast<u128>(f2) * g0 + static_cast<u128>(f3) * g4_19 +
            static_cast<u128>(f4) * g3_19;
  u128 t3 = static_cast<u128>(f0) * g3 + static_cast<u128>(f1) * g2 +
            static_cast<u128>(f2) * g1 + static_cast<u128>(f3) * g0 +
            static_cast<u128>(f4) * g4_19;
  u128 t4 = static_cast<u128>(f0) * g4 + static_cast<u128>(f1) * g3 +
            static_cast<u128>(f2) * g2 + static_cast<u128>(f3) * g1 +
            static_cast<u128>(f4) * g0;
  FeCarry(h, t0, t1, t2, t3, t4);
}

/// h = f^2: the 15-product schoolbook square (cross terms doubled once,
/// wrapped terms pre-multiplied by 19 or 38).
[[gnu::always_inline]] inline void FeSq(Fe* h, const Fe& f) {
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 f0_2 = 2 * f0, f1_2 = 2 * f1;
  const u64 f1_38 = 38 * f1, f2_38 = 38 * f2, f3_38 = 38 * f3;
  const u64 f3_19 = 19 * f3, f4_19 = 19 * f4;
  u128 t0 = static_cast<u128>(f0) * f0 + static_cast<u128>(f1_38) * f4 +
            static_cast<u128>(f2_38) * f3;
  u128 t1 = static_cast<u128>(f0_2) * f1 + static_cast<u128>(f2_38) * f4 +
            static_cast<u128>(f3_19) * f3;
  u128 t2 = static_cast<u128>(f0_2) * f2 + static_cast<u128>(f1) * f1 +
            static_cast<u128>(f3_38) * f4;
  u128 t3 = static_cast<u128>(f0_2) * f3 + static_cast<u128>(f1_2) * f2 +
            static_cast<u128>(f4_19) * f4;
  u128 t4 = static_cast<u128>(f0_2) * f4 + static_cast<u128>(f1_2) * f3 +
            static_cast<u128>(f2) * f2;
  FeCarry(h, t0, t1, t2, t3, t4);
}

void FeSqN(Fe* h, const Fe& f, int n) {
  Fe t = f;  // A local, so the squaring chain can stay in registers.
  for (int i = 0; i < n; ++i) FeSq(&t, t);
  *h = t;
}

/// Shared ladder for the two exponentiations: returns z^(2^250 - 1) in
/// `t250` and z^11 in `t11` (enough to finish either exponent).
void FePowLadder(Fe* t250, Fe* t11, const Fe& z) {
  Fe z2, z9, z11, z31, t5, t10, t20, t40, t50, t100, t200, tmp;
  FeSq(&z2, z);               // z^2
  FeSqN(&tmp, z2, 2);         // z^8
  FeMul(&z9, tmp, z);         // z^9
  FeMul(&z11, z9, z2);        // z^11
  FeSq(&tmp, z11);            // z^22
  FeMul(&z31, tmp, z9);       // z^31 = z^(2^5 - 1)
  t5 = z31;
  FeSqN(&tmp, t5, 5);
  FeMul(&t10, tmp, t5);       // z^(2^10 - 1)
  FeSqN(&tmp, t10, 10);
  FeMul(&t20, tmp, t10);      // z^(2^20 - 1)
  FeSqN(&tmp, t20, 20);
  FeMul(&t40, tmp, t20);      // z^(2^40 - 1)
  FeSqN(&tmp, t40, 10);
  FeMul(&t50, tmp, t10);      // z^(2^50 - 1)
  FeSqN(&tmp, t50, 50);
  FeMul(&t100, tmp, t50);     // z^(2^100 - 1)
  FeSqN(&tmp, t100, 100);
  FeMul(&t200, tmp, t100);    // z^(2^200 - 1)
  FeSqN(&tmp, t200, 50);
  FeMul(t250, tmp, t50);      // z^(2^250 - 1)
  *t11 = z11;
}

/// h = z^(p-2) = z^(2^255 - 21): the inverse for z != 0.
void FeInvert(Fe* h, const Fe& z) {
  Fe t250, z11, tmp;
  FePowLadder(&t250, &z11, z);
  FeSqN(&tmp, t250, 5);  // z^(2^255 - 2^5)
  FeMul(h, tmp, z11);    // z^(2^255 - 21)
}

/// h = z^((p-5)/8) = z^(2^252 - 3): the square-root exponent.
void FePow22523(Fe* h, const Fe& z) {
  Fe t250, z11, tmp;
  FePowLadder(&t250, &z11, z);
  FeSqN(&tmp, t250, 2);  // z^(2^252 - 4)
  FeMul(h, tmp, z);      // z^(2^252 - 3)
}

bool FeIsZero(const Fe& f) {
  uint8_t s[32];
  FeToBytes(s, f);
  uint8_t acc = 0;
  for (uint8_t b : s) acc |= b;
  return acc == 0;
}

bool FeIsNegative(const Fe& f) {
  uint8_t s[32];
  FeToBytes(s, f);
  return (s[0] & 1) != 0;
}

bool FeEqual(const Fe& f, const Fe& g) {
  Fe diff;
  FeSub(&diff, f, g);
  return FeIsZero(diff);
}

// ------------------------------------------------------------- Constants
// Verified little-endian encodings (cross-checked against an independent
// reference; the RFC 8032 vector tests would fail on any bit error here).
constexpr uint8_t kDBytes[32] = {
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41,
    0x41, 0x4d, 0x0a, 0x70, 0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40,
    0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52};
constexpr uint8_t kSqrtM1Bytes[32] = {
    0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f,
    0xad, 0x06, 0x18, 0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00,
    0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b};
/// Base point encoding: y = 4/5, x positive.
constexpr uint8_t kBaseBytes[32] = {
    0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66};
/// Group order L = 2^252 + 27742317777372353535851937790883648493,
/// little-endian bytes.
constexpr uint8_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                        0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                        0,    0,    0,    0,    0,    0,    0,    0,
                        0,    0,    0,    0,    0,    0,    0,    0x10};

// -------------------------------------------------------------- Points
// ref10 layout: P2 is projective (X:Y:Z); P3 extended (X:Y:Z:T) with
// T = XY/Z; P1P1 the "completed" result of an addition or doubling;
// Cached a projective addend (Y+X : Y-X : Z : 2dT); Precomp an affine
// addend (y+x, y-x, 2dxy) with Z = 1, one multiplication cheaper to add.
//
// Doubling needs only (X:Y:Z), and P1P1 -> P2 costs 3 multiplications
// against 4 for P1P1 -> P3, so runs of doublings stay in P2 and convert
// to P3 only right before an addition.

using P3 = internal_ed25519::Point;
struct P2 {
  Fe x, y, z;
};
struct P1P1 {
  Fe x, y, z, t;
};
struct Cached {
  Fe y_plus_x, y_minus_x, z, t2d;
};
struct Precomp {
  Fe y_plus_x, y_minus_x, xy2d;
};

/// Lazily-built constants and base-point tables (thread-safe since C++11;
/// pure computation, so rule D1's determinism contract holds). The tables
/// are ~32 KB: 256 affine multiples for the fixed-base multiply plus the
/// odd multiples of B and of 2^128 B for verification.
struct Curve {
  Fe d, d2, sqrt_m1;
  P3 base;
  /// radix16[i][j] = (j+1) * 256^i * B, for signed-radix-16 [s]B.
  Precomp radix16[32][8];
  /// base_odd[j] = (2j+1) * B and base128_odd[j] = (2j+1) * 2^128 * B:
  /// the two halves of a split [s]B in the verification multiply.
  Precomp base_odd[8];
  Precomp base128_odd[8];
};

void P3Identity(P3* h) {
  h->x = kFeZero;
  h->y = kFeOne;
  h->z = kFeOne;
  h->t = kFeZero;
}

void P3ToCached(Cached* r, const P3& p, const Curve& c) {
  FeAdd(&r->y_plus_x, p.y, p.x);
  FeSub(&r->y_minus_x, p.y, p.x);
  r->z = p.z;
  FeMul(&r->t2d, p.t, c.d2);
}

void P3ToPrecomp(Precomp* r, const P3& p, const Curve& c) {
  Fe zinv, x, y;
  FeInvert(&zinv, p.z);
  FeMul(&x, p.x, zinv);
  FeMul(&y, p.y, zinv);
  FeAdd(&r->y_plus_x, y, x);
  FeSub(&r->y_minus_x, y, x);
  FeMul(&r->xy2d, x, y);
  FeMul(&r->xy2d, r->xy2d, c.d2);
}

void P1P1ToP2(P2* r, const P1P1& p) {
  FeMul(&r->x, p.x, p.t);
  FeMul(&r->y, p.y, p.z);
  FeMul(&r->z, p.z, p.t);
}

void P1P1ToP3(P3* r, const P1P1& p) {
  FeMul(&r->x, p.x, p.t);
  FeMul(&r->y, p.y, p.z);
  FeMul(&r->z, p.z, p.t);
  FeMul(&r->t, p.x, p.y);
}

/// r = 2*p: 4 squarings, no multiplication (T is not needed).
void P2Dbl(P1P1* r, const P2& p) {
  Fe xx, yy, zz2, xpy, xpy2;
  FeSq(&xx, p.x);
  FeSq(&yy, p.y);
  FeSq(&zz2, p.z);
  FeAdd(&zz2, zz2, zz2);
  FeAdd(&xpy, p.x, p.y);
  FeSq(&xpy2, xpy);
  FeAdd(&r->y, yy, xx);        // Y3 = YY + XX
  FeSub(&r->z, yy, xx);        // Z3 = YY - XX
  FeSub(&r->x, xpy2, r->y);    // X3 = (X+Y)^2 - YY - XX = 2XY
  FeSub(&r->t, zz2, r->z);     // T3 = 2ZZ - Z3
}

void P3Dbl(P1P1* r, const P3& p) { P2Dbl(r, P2{p.x, p.y, p.z}); }

/// r = p + q.
void P3Add(P1P1* r, const P3& p, const Cached& q) {
  Fe a, b, cc, dd, t0;
  FeAdd(&t0, p.y, p.x);
  FeMul(&a, t0, q.y_plus_x);   // A = (Y1+X1)(Y2+X2)
  FeSub(&t0, p.y, p.x);
  FeMul(&b, t0, q.y_minus_x);  // B = (Y1-X1)(Y2-X2)
  FeMul(&cc, p.t, q.t2d);      // C = 2d T1 T2
  FeMul(&dd, p.z, q.z);
  FeAdd(&dd, dd, dd);          // D = 2 Z1 Z2
  FeSub(&r->x, a, b);
  FeAdd(&r->y, a, b);
  FeAdd(&r->z, dd, cc);
  FeSub(&r->t, dd, cc);
}

/// r = p + q for an affine addend (Z2 = 1, so D = 2 Z1).
void P3MAdd(P1P1* r, const P3& p, const Precomp& q) {
  Fe a, b, cc, dd, t0;
  FeAdd(&t0, p.y, p.x);
  FeMul(&a, t0, q.y_plus_x);
  FeSub(&t0, p.y, p.x);
  FeMul(&b, t0, q.y_minus_x);
  FeMul(&cc, p.t, q.xy2d);
  FeAdd(&dd, p.z, p.z);
  FeSub(&r->x, a, b);
  FeAdd(&r->y, a, b);
  FeAdd(&r->z, dd, cc);
  FeSub(&r->t, dd, cc);
}

/// -q for both addend forms: -(x, y) = (-x, y) swaps Y+X with Y-X and
/// negates the T term.
Cached CachedNeg(const Cached& q) {
  Cached r{q.y_minus_x, q.y_plus_x, q.z, {}};
  FeNeg(&r.t2d, q.t2d);
  return r;
}

Precomp PrecompNeg(const Precomp& q) {
  Precomp r{q.y_minus_x, q.y_plus_x, {}};
  FeNeg(&r.xy2d, q.xy2d);
  return r;
}

void P3Neg(P3* r, const P3& p) {
  FeNeg(&r->x, p.x);
  r->y = p.y;
  r->z = p.z;
  FeNeg(&r->t, p.t);
}

/// Canonical encoding of the projective point (X:Y:Z).
void EncodeXyz(uint8_t s[32], const Fe& px, const Fe& py, const Fe& pz) {
  Fe zinv, x, y;
  FeInvert(&zinv, pz);
  FeMul(&x, px, zinv);
  FeMul(&y, py, zinv);
  FeToBytes(s, y);
  uint8_t xb[32];
  FeToBytes(xb, x);
  s[31] |= static_cast<uint8_t>((xb[0] & 1) << 7);
}

P3 P3Double(const P3& p) {
  P1P1 t;
  P3Dbl(&t, p);
  P3 r;
  P1P1ToP3(&r, t);
  return r;
}

/// 2^128 * p: the high-half base of a split scalar.
P3 Times2To128(const P3& p) {
  P1P1 t;
  P2 s{p.x, p.y, p.z};
  for (int k = 0; k < 128; ++k) {
    P2Dbl(&t, s);
    if (k < 127) P1P1ToP2(&s, t);
  }
  P3 r;
  P1P1ToP3(&r, t);
  return r;
}

/// out[j] = p + j * step: the rows of every precomputed table.
void Progression(P3 out[8], const P3& p, const P3& step, const Curve& c) {
  Cached step_cached;
  P3ToCached(&step_cached, step, c);
  out[0] = p;
  for (int j = 1; j < 8; ++j) {
    P1P1 t;
    P3Add(&t, out[j - 1], step_cached);
    P1P1ToP3(&out[j], t);
  }
}

/// out[j] = (2j+1) * p, the odd-multiple table of the width-5 NAF.
void OddMultiples(Cached out[8], const P3& p, const Curve& c) {
  P3 multiples[8];
  Progression(multiples, p, P3Double(p), c);
  for (int j = 0; j < 8; ++j) P3ToCached(&out[j], multiples[j], c);
}

/// True when the 255-bit little-endian value (sign bit ignored) is a
/// canonical field element, i.e. < p = 2^255 - 19.
bool YIsCanonical(const uint8_t s[32]) {
  // y >= p requires bytes 1..30 all 0xff, byte 31 (sans sign) 0x7f, and
  // byte 0 >= 0xed.
  if ((s[31] & 0x7f) != 0x7f || s[0] < 0xed) return true;
  for (int i = 1; i < 31; ++i)
    if (s[i] != 0xff) return true;
  return false;
}

/// RFC 8032 §5.1.3 decompression with strict (canonical-y) parsing. Uses
/// only c.d and c.sqrt_m1, so BuildCurve may call it mid-construction.
[[nodiscard]] bool P3Decompress(P3* h, const uint8_t s[32], const Curve& c) {
  if (!YIsCanonical(s)) return false;
  const bool sign = (s[31] & 0x80) != 0;
  Fe y;
  FeFromBytes(&y, s);
  Fe y2, u, v;
  FeSq(&y2, y);
  FeSub(&u, y2, kFeOne);       // u = y^2 - 1
  FeMul(&v, y2, c.d);
  FeAdd(&v, v, kFeOne);        // v = d y^2 + 1

  // x = u v^3 (u v^7)^((p-5)/8); then fix up by sqrt(-1) or fail.
  Fe v2, v3, v7, uv7, pow, x;
  FeSq(&v2, v);
  FeMul(&v3, v2, v);
  FeSq(&v7, v3);
  FeMul(&v7, v7, v);
  FeMul(&uv7, u, v7);
  FePow22523(&pow, uv7);
  FeMul(&x, u, v3);
  FeMul(&x, x, pow);

  Fe vx2, neg_u;
  FeSq(&vx2, x);
  FeMul(&vx2, vx2, v);
  FeNeg(&neg_u, u);
  if (!FeEqual(vx2, u)) {
    if (!FeEqual(vx2, neg_u)) return false;  // u/v is not a square.
    FeMul(&x, x, c.sqrt_m1);
  }
  if (FeIsZero(x) && sign) return false;  // -0 is not a valid encoding.
  if (FeIsNegative(x) != sign) FeNeg(&x, x);

  h->x = x;
  h->y = y;
  h->z = kFeOne;
  FeMul(&h->t, x, y);
  return true;
}

void BuildCurve(Curve* c) {
  FeFromBytes(&c->d, kDBytes);
  FeAdd(&c->d2, c->d, c->d);
  FeFromBytes(&c->sqrt_m1, kSqrtM1Bytes);
  bool ok = P3Decompress(&c->base, kBaseBytes, *c);
  (void)ok;  // The encoding is a compile-time constant; always valid.

  P3 multiples[8];
  P3 row = c->base;  // 256^i * B
  for (auto& entries : c->radix16) {
    Progression(multiples, row, row, *c);
    for (int j = 0; j < 8; ++j) P3ToPrecomp(&entries[j], multiples[j], *c);
    for (int k = 0; k < 8; ++k) row = P3Double(row);
  }
  Progression(multiples, c->base, P3Double(c->base), *c);
  for (int j = 0; j < 8; ++j) P3ToPrecomp(&c->base_odd[j], multiples[j], *c);
  const P3 base128 = Times2To128(c->base);
  Progression(multiples, base128, P3Double(base128), *c);
  for (int j = 0; j < 8; ++j)
    P3ToPrecomp(&c->base128_odd[j], multiples[j], *c);
}

const Curve& GetCurve() {
  static const Curve curve = [] {
    Curve c;
    BuildCurve(&c);
    return c;
  }();
  return curve;
}

// -------------------------------------------------------------- Scalars
// Arithmetic mod L on 32-byte little-endian scalars in ref10's signed
// 21-bit limbs: 2^252 = -(L - 2^252) mod L, so a limb i >= 12 folds into
// limbs i-12 .. i-7 times the six signed limbs of -(L - 2^252).

constexpr int64_t kFold[6] = {666643, 470296, 654183, -997805, 136657, -683901};
constexpr int64_t kLimbMask = (int64_t{1} << 21) - 1;

/// Splits an n-byte little-endian integer into `count` 21-bit limbs; the
/// top limb keeps every remaining bit.
void ScLoad(int64_t* limbs, int count, const uint8_t* bytes, int n) {
  for (int i = 0; i < count; ++i) {
    const int bit = 21 * i;
    u64 v = 0;
    for (int b = bit / 8, k = 0; b < n && k < 8; ++b, ++k)
      v |= static_cast<u64>(bytes[b]) << (8 * k);
    v >>= bit % 8;
    limbs[i] = static_cast<int64_t>(i + 1 < count ? v & kLimbMask : v);
  }
}

void ScFold(int64_t* s, int i) {
  for (int k = 0; k < 6; ++k) s[i - 12 + k] += s[i] * kFold[k];
  s[i] = 0;
}

/// Moves limb i's excess into limb i+1, leaving limb i in [-2^20, 2^20).
void ScCarryRound(int64_t* s, int i) {
  const int64_t carry = (s[i] + (int64_t{1} << 20)) >> 21;
  s[i + 1] += carry;
  s[i] -= carry * (int64_t{1} << 21);
}

/// Moves limb i's excess into limb i+1, leaving limb i in [0, 2^21).
void ScCarryFloor(int64_t* s, int i) {
  const int64_t carry = s[i] >> 21;
  s[i + 1] += carry;
  s[i] -= carry * (int64_t{1} << 21);
}

/// r = s mod L for 24 limbs whose magnitudes fit ref10's sc_reduce
/// schedule (any 512-bit input, or a carried 12x12-limb product).
void ScReduceLimbs(uint8_t r[32], int64_t s[24]) {
  for (int i = 23; i >= 18; --i) ScFold(s, i);
  for (int i = 6; i <= 16; i += 2) ScCarryRound(s, i);
  for (int i = 7; i <= 15; i += 2) ScCarryRound(s, i);
  for (int i = 17; i >= 12; --i) ScFold(s, i);
  for (int i = 0; i <= 10; i += 2) ScCarryRound(s, i);
  for (int i = 1; i <= 11; i += 2) ScCarryRound(s, i);
  ScFold(s, 12);
  for (int i = 0; i <= 11; ++i) ScCarryFloor(s, i);
  ScFold(s, 12);
  for (int i = 0; i <= 10; ++i) ScCarryFloor(s, i);

  u64 acc = 0;
  int acc_bits = 0, pos = 0;
  for (int i = 0; i < 12; ++i) {
    acc |= static_cast<u64>(s[i]) << acc_bits;
    acc_bits += 21;
    for (; acc_bits >= 8; acc_bits -= 8, acc >>= 8)
      r[pos++] = static_cast<uint8_t>(acc);
  }
  r[pos] = static_cast<uint8_t>(acc);
}

/// r = x mod L for a 64-byte (512-bit) little-endian input.
void ScReduce64(uint8_t r[32], const uint8_t x[64]) {
  int64_t s[24];
  ScLoad(s, 24, x, 64);
  ScReduceLimbs(r, s);
}

/// r = (a * b + c) mod L, all 32-byte little-endian scalars.
void ScMulAdd(uint8_t r[32], const uint8_t a[32], const uint8_t b[32],
              const uint8_t c[32]) {
  int64_t al[12], bl[12], s[24];
  ScLoad(al, 12, a, 32);
  ScLoad(bl, 12, b, 32);
  ScLoad(s, 12, c, 32);
  for (int k = 12; k < 24; ++k) s[k] = 0;
  for (int i = 0; i < 12; ++i)
    for (int j = 0; j < 12; ++j) s[i + j] += al[i] * bl[j];
  for (int i = 0; i <= 22; i += 2) ScCarryRound(s, i);
  for (int i = 1; i <= 21; i += 2) ScCarryRound(s, i);
  ScReduceLimbs(r, s);
}

/// True iff the 32-byte little-endian scalar is < L (RFC 8032's MUST for
/// the s half of a signature; rejects the (s + L) malleability).
bool ScIsCanonical(const uint8_t s[32]) {
  for (int i = 31; i >= 0; --i) {
    if (s[i] < kL[i]) return true;
    if (s[i] > kL[i]) return false;
  }
  return false;  // s == L.
}

// ------------------------------------------------------ Fixed-base [s]B
// Signed radix 16: s = sum_{i<64} e_i 16^i with e_i in [-8, 8], so
// [s]B = sum_i e_i (16^i B). Odd i share a factor of 16, which lets one
// table row (multiples of 256^k B) serve both parities:
//   [s]B = 16 * sum_{i odd} e_i 256^(i/2) B  +  sum_{i even} e_i 256^(i/2) B
// — 64 affine additions and 4 doublings in all.

/// h += e * radix16[row], e in [-8, 8].
void AddRadix16(P3* h, const Curve& c, int row, int8_t e) {
  if (e == 0) return;
  const Precomp& entry = c.radix16[row][(e > 0 ? e : -e) - 1];
  P1P1 r;
  P3MAdd(&r, *h, e > 0 ? entry : PrecompNeg(entry));
  P1P1ToP3(h, r);
}

/// out = [scalar]B for a 32-byte little-endian scalar below 2^255.
void ScalarMulBase(P3* out, const uint8_t scalar[32]) {
  const Curve& c = GetCurve();
  int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<int8_t>(scalar[i] & 15);
    e[2 * i + 1] = static_cast<int8_t>(scalar[i] >> 4);
  }
  // Recentre each nibble into [-8, 8) by carrying into the next one.
  int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<int8_t>(e[i] + carry);
    carry = static_cast<int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<int8_t>(e[63] + carry);  // <= 8 since scalar < 2^255.

  P3Identity(out);
  for (int i = 1; i < 64; i += 2) AddRadix16(out, c, i / 2, e[i]);
  P1P1 r;
  P2 s{out->x, out->y, out->z};
  for (int k = 0; k < 4; ++k) {
    P2Dbl(&r, s);
    if (k < 3) P1P1ToP2(&s, r);
  }
  P1P1ToP3(out, r);
  for (int i = 0; i < 64; i += 2) AddRadix16(out, c, i / 2, e[i]);
}

// ------------------------------------------------- Multi-scalar multiply
// Variable-time interleaved Straus over width-5 NAF digits: one shared
// chain of doublings however many (point, scalar) terms take part — the
// batch-verification speedup lives here — and, per term, one addition
// per nonzero digit (about one in six positions) from an eight-entry
// table of odd multiples.
//
// Split scalars: every scalar is at most 128 bits wide. A full-width
// scalar k = k_lo + 2^128 k_hi becomes two terms, [k_lo]P + [k_hi](2^128 P),
// the second read from a table of 2^128 P's odd multiples (static for B,
// per key for -A). The chain then runs ~128 doublings instead of ~253
// for the same number of additions, and the point computed is the same
// group element, so every verdict is unchanged.

/// Width-5 NAF (see internal_ed25519::NafRecode for the contract).
/// Returns the index of the highest nonzero digit, or -1 for zero.
int NafDigits(int8_t naf[256], const uint8_t scalar[32]) {
  u64 words[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 32; ++i)
    words[i / 8] |= static_cast<u64>(scalar[i]) << (8 * (i % 8));
  std::memset(naf, 0, 256);
  int bits = 256;  // One past the scalar's top set bit.
  while (bits > 0 && ((words[(bits - 1) / 64] >> ((bits - 1) % 64)) & 1) == 0)
    --bits;
  constexpr u64 kWidth = 32;  // 2^5
  u64 carry = 0;
  int pos = 0, top = -1;
  while (pos < 256 && (pos < bits || carry != 0)) {
    const int word = pos / 64, bit = pos % 64;
    u64 bits_here = words[word] >> bit;
    if (bit > 64 - 5) bits_here |= words[word + 1] << (64 - bit);
    const u64 window = carry + (bits_here & (kWidth - 1));
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < kWidth / 2) {
      carry = 0;
      naf[pos] = static_cast<int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<int8_t>(static_cast<int>(window) - 32);
    }
    top = pos;
    pos += 5;
  }
  return top;
}

/// The low and high 128-bit halves of a 32-byte scalar, each zero-padded
/// back to 32 bytes.
void SplitScalar(uint8_t lo[32], uint8_t hi[32], const uint8_t scalar[32]) {
  std::memcpy(lo, scalar, 16);
  std::memset(lo + 16, 0, 16);
  std::memcpy(hi, scalar + 16, 16);
  std::memset(hi + 16, 0, 16);
}

/// One variable-base term: the NAF digits of a scalar below 2^128 and the
/// odd-multiple table of its point.
struct NafTerm {
  const Cached* table;  // table[j] = (2j+1) * point
  int8_t naf[256];
  int top;  // Highest nonzero digit, -1 if none.
};

void SetTerm(NafTerm* term, const Cached* table, const uint8_t scalar[32]) {
  term->table = table;
  term->top = NafDigits(term->naf, scalar);
}

/// out = [b_scalar]B + sum_k [scalar_k] point_k, as a projective point.
/// b_scalar is any 32-byte scalar below 2^255 (split here); every term's
/// scalar must be below 2^128.
void MultiScalarMul(P2* out, const uint8_t b_scalar[32], const NafTerm* terms,
                    size_t n) {
  const Curve& c = GetCurve();
  uint8_t b_lo[32], b_hi[32];
  SplitScalar(b_lo, b_hi, b_scalar);
  int8_t b_naf[2][256];
  const Precomp* b_table[2] = {c.base_odd, c.base128_odd};
  int top = std::max(NafDigits(b_naf[0], b_lo), NafDigits(b_naf[1], b_hi));
  for (size_t k = 0; k < n; ++k) top = std::max(top, terms[k].top);
  MASSBFT_CHECK(top <= 128);

  *out = P2{kFeZero, kFeOne, kFeOne};
  P1P1 t;
  P3 u;
  for (int i = top; i >= 0; --i) {
    P2Dbl(&t, *out);
    for (size_t k = 0; k < n; ++k) {
      const int d = terms[k].naf[i];
      if (d == 0) continue;
      P1P1ToP3(&u, t);
      if (d > 0) {
        P3Add(&t, u, terms[k].table[d / 2]);
      } else {
        P3Add(&t, u, CachedNeg(terms[k].table[-d / 2]));
      }
    }
    for (int half = 0; half < 2; ++half) {
      const int d = b_naf[half][i];
      if (d == 0) continue;
      P1P1ToP3(&u, t);
      const Precomp* table = b_table[half];
      P3MAdd(&t, u, d > 0 ? table[d / 2] : PrecompNeg(table[-d / 2]));
    }
    P1P1ToP2(out, t);
  }
}

/// h = SHA512(R || A || M) mod L — the Schnorr challenge scalar.
void ChallengeScalar(uint8_t h[32], const uint8_t r_bytes[32],
                     const PublicKey& public_key, const uint8_t* data,
                     size_t len) {
  Sha512 hash;
  hash.Update(r_bytes, 32);
  hash.Update(public_key.data(), public_key.size());
  hash.Update(data, len);
  Digest512 digest = hash.Finish();
  ScReduce64(h, digest.data());
}

/// a (clamped) and the nonce prefix from the secret seed (RFC 8032 §5.1.5).
void ExpandSecret(uint8_t a[32], uint8_t prefix[32], const SecretKey& secret) {
  Digest512 h = Sha512::Hash(secret.data(), secret.size());
  std::memcpy(a, h.data(), 32);
  std::memcpy(prefix, h.data() + 32, 32);
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
}

PublicKey EncodeP3(const P3& p) {
  PublicKey out;
  EncodeXyz(out.data(), p.x, p.y, p.z);
  return out;
}

Sig SignExpanded(const uint8_t a[32], const uint8_t prefix[32],
                 const PublicKey& public_key, const uint8_t* data,
                 size_t len) {
  // Deterministic nonce r = SHA512(prefix || M) mod L.
  Sha512 hash;
  hash.Update(prefix, 32);
  hash.Update(data, len);
  Digest512 nonce_hash = hash.Finish();
  uint8_t r[32];
  ScReduce64(r, nonce_hash.data());

  P3 r_point;
  ScalarMulBase(&r_point, r);
  Sig sig{};
  EncodeXyz(sig.data(), r_point.x, r_point.y, r_point.z);

  uint8_t h[32], s[32];
  ChallengeScalar(h, sig.data(), public_key, data, len);
  ScMulAdd(s, h, a, r);  // s = (r + h*a) mod L.
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

}  // namespace

struct PrecomputedKey {
  PublicKey public_key{};
  /// False when public_key is not a canonical curve point encoding.
  bool valid = false;
  /// neg_a[j] = -(2j+1) A and neg_a128[j] = -(2j+1) 2^128 A: Verify adds
  /// the two halves of a split [h](-A) to [s]B.
  Cached neg_a[8];
  Cached neg_a128[8];
  bool has_secret = false;
  uint8_t a[32] = {};
  uint8_t prefix[32] = {};
};

namespace {

/// Fills the verification tables of the point A, given 2^128 A.
void SetVerifyTables(PrecomputedKey* key, const P3& point,
                     const P3& point128) {
  const Curve& c = GetCurve();
  P3 neg;
  P3Neg(&neg, point);
  OddMultiples(key->neg_a, neg, c);
  P3Neg(&neg, point128);
  OddMultiples(key->neg_a128, neg, c);
  key->valid = true;
}

std::shared_ptr<PrecomputedKey> BuildVerifyKey(const PublicKey& public_key) {
  auto key = std::make_shared<PrecomputedKey>();
  key->public_key = public_key;
  P3 point;
  if (!P3Decompress(&point, public_key.data(), GetCurve())) return key;
  SetVerifyTables(key.get(), point, Times2To128(point));
  return key;
}

/// Encoding of [s]B - [h]A through the split-scalar multiply.
void RecomputeR(uint8_t r_bytes[32], const PrecomputedKey& key,
                const uint8_t h[32], const uint8_t s[32]) {
  uint8_t h_lo[32], h_hi[32];
  SplitScalar(h_lo, h_hi, h);
  NafTerm terms[2];
  SetTerm(&terms[0], key.neg_a, h_lo);
  SetTerm(&terms[1], key.neg_a128, h_hi);
  P2 r;
  MultiScalarMul(&r, s, terms, 2);
  EncodeXyz(r_bytes, r.x, r.y, r.z);
}

}  // namespace

PublicKey DerivePublicKey(const SecretKey& secret) {
  uint8_t a[32], prefix[32];
  ExpandSecret(a, prefix, secret);
  P3 point;
  ScalarMulBase(&point, a);
  return EncodeP3(point);
}

std::shared_ptr<const PrecomputedKey> PrecomputeSigningKey(
    const SecretKey& secret) {
  auto key = std::make_shared<PrecomputedKey>();
  ExpandSecret(key->a, key->prefix, secret);
  key->has_secret = true;
  P3 point;
  ScalarMulBase(&point, key->a);
  key->public_key = EncodeP3(point);
  // A = [a]B and B has prime order L, so 2^128 A = [2^128 a mod L]B: one
  // more fixed-base multiply, half the cost of Times2To128's 128
  // doublings. Key derivation is most of a cluster's set-up: on a 4-vCPU
  // Xeon VM, perfbench tpcc-open setup_s (median of 4 rotated runs) was
  // 0.56 ms before split scalars, 0.66 ms with this path and 0.74 ms with
  // Times2To128 for signing keys too, past the benchmark's 25% bound.
  uint8_t two_128[32] = {0}, zero[32] = {0}, a128[32];
  two_128[16] = 1;
  ScMulAdd(a128, key->a, two_128, zero);
  P3 point128;
  ScalarMulBase(&point128, a128);
  SetVerifyTables(key.get(), point, point128);
  return key;
}

std::shared_ptr<const PrecomputedKey> PrecomputeVerifyKey(
    const PublicKey& public_key) {
  return BuildVerifyKey(public_key);
}

Sig Sign(const SecretKey& secret, const PublicKey& public_key,
         const uint8_t* data, size_t len) {
  uint8_t a[32], prefix[32];
  ExpandSecret(a, prefix, secret);
  return SignExpanded(a, prefix, public_key, data, len);
}

Sig Sign(const PrecomputedKey& key, const uint8_t* data, size_t len) {
  MASSBFT_CHECK(key.has_secret);
  return SignExpanded(key.a, key.prefix, key.public_key, data, len);
}

bool Verify(const PublicKey& public_key, const uint8_t* data, size_t len,
            const Sig& sig) {
  return Verify(*BuildVerifyKey(public_key), data, len, sig);
}

bool Verify(const PrecomputedKey& key, const uint8_t* data, size_t len,
            const Sig& sig) {
  if (!key.valid || !ScIsCanonical(sig.data() + 32)) return false;
  // R' = [s]B - [h]A must re-encode to the signature's R bytes.
  uint8_t h[32];
  ChallengeScalar(h, sig.data(), key.public_key, data, len);
  uint8_t r_bytes[32];
  RecomputeR(r_bytes, key, h, sig.data() + 32);
  return std::memcmp(r_bytes, sig.data(), 32) == 0;
}

bool VerifyBatch(const std::vector<BatchItem>& items, const uint8_t* data,
                 size_t len) {
  const size_t n = items.size();
  if (n == 0) return true;

  // Raw-byte items get a per-call key; precomputed ones are used as is.
  std::vector<std::shared_ptr<const PrecomputedKey>> owned;
  std::vector<const PrecomputedKey*> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = items[i].key;
    if (keys[i] == nullptr) {
      owned.push_back(BuildVerifyKey(*items[i].public_key));
      keys[i] = owned.back().get();
    }
  }
  if (n == 1) return Verify(*keys[0], data, len, *items[0].sig);
  const Curve& curve = GetCurve();

  // Deterministic 128-bit combination coefficients z_i: a transcript hash
  // over the whole batch, then one hash per index. No signer controls the
  // full transcript, so engineering a cancellation across terms requires
  // predicting SHA-512 outputs.
  Sha512 transcript;
  transcript.Update("massbft-ed25519-batch-v1");
  transcript.Update(data, len);
  for (size_t i = 0; i < n; ++i) {
    transcript.Update(keys[i]->public_key.data(), keys[i]->public_key.size());
    transcript.Update(items[i].sig->data(), items[i].sig->size());
  }
  const Digest512 seed = transcript.Finish();

  // Decompress every R up front; any malformed encoding fails the batch
  // (the scalar fallback then pinpoints it).
  std::vector<std::array<Cached, 8>> neg_r(n);
  for (size_t i = 0; i < n; ++i) {
    if (!keys[i]->valid || !ScIsCanonical(items[i].sig->data() + 32))
      return false;
    P3 point, neg;
    if (!P3Decompress(&point, items[i].sig->data(), curve)) return false;
    P3Neg(&neg, point);
    OddMultiples(neg_r[i].data(), neg, curve);
  }

  uint8_t zero[32] = {0};
  uint8_t b_scalar[32] = {0};  // sum_i z_i s_i mod L.
  std::vector<NafTerm> terms(3 * n);
  for (size_t i = 0; i < n; ++i) {
    Sha512 zi_hash;
    zi_hash.Update(seed.data(), seed.size());
    const uint8_t index = static_cast<uint8_t>(i);
    zi_hash.Update(&index, 1);
    const Digest512 zi = zi_hash.Finish();
    uint8_t z[32] = {0};
    std::memcpy(z, zi.data(), 16);  // z_i in [0, 2^128).

    uint8_t h[32], zh[32], zh_lo[32], zh_hi[32];
    ChallengeScalar(h, items[i].sig->data(), keys[i]->public_key, data, len);
    ScMulAdd(zh, z, h, zero);                                   // z_i h_i
    ScMulAdd(b_scalar, z, items[i].sig->data() + 32, b_scalar);  // += z_i s_i
    SplitScalar(zh_lo, zh_hi, zh);
    SetTerm(&terms[3 * i], neg_r[i].data(), z);
    SetTerm(&terms[3 * i + 1], keys[i]->neg_a, zh_lo);
    SetTerm(&terms[3 * i + 2], keys[i]->neg_a128, zh_hi);
  }

  // [sum z_i s_i]B - sum [z_i]R_i - sum [z_i h_i]A_i == identity, i.e.
  // X == 0 and Y == Z projectively.
  P2 result;
  MultiScalarMul(&result, b_scalar, terms.data(), terms.size());
  return FeIsZero(result.x) && FeEqual(result.y, result.z);
}

}  // namespace ed25519

// ------------------------------------------------------------ Test seams

namespace internal_ed25519 {

using ed25519::Cached;
using ed25519::P1P1;

Point IdentityPoint() {
  Point p;
  ed25519::P3Identity(&p);
  return p;
}

Point BasePoint() { return ed25519::GetCurve().base; }

Point AddPoints(const Point& p, const Point& q) {
  Cached cached;
  ed25519::P3ToCached(&cached, q, ed25519::GetCurve());
  P1P1 sum;
  ed25519::P3Add(&sum, p, cached);
  Point r;
  ed25519::P1P1ToP3(&r, sum);
  return r;
}

Point DoublePoint(const Point& p) { return ed25519::P3Double(p); }

ed25519::PublicKey EncodePoint(const Point& p) { return ed25519::EncodeP3(p); }

ed25519::PublicKey ScalarMulBase(const uint8_t scalar[32]) {
  Point p;
  ed25519::ScalarMulBase(&p, scalar);
  return ed25519::EncodeP3(p);
}

void NafRecode(int8_t naf[256], const uint8_t scalar[32]) {
  ed25519::NafDigits(naf, scalar);
}

ed25519::PublicKey VerifyCombination(const ed25519::PrecomputedKey& key,
                                     const uint8_t h[32],
                                     const uint8_t s[32]) {
  ed25519::PublicKey out;
  ed25519::RecomputeR(out.data(), key, h, s);
  return out;
}

}  // namespace internal_ed25519
}  // namespace massbft
