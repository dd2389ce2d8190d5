#include "crypto/p256.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace aseck::crypto::p256 {

namespace {

const U256 kP = U256::from_hex(
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
const U256 kN = U256::from_hex(
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
const U256 kB = U256::from_hex(
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
const U256 kGx = U256::from_hex(
    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
const U256 kGy = U256::from_hex(
    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");

// Per thread: the leakage demo reads it around one scalar multiplication,
// while other threads may be running the field layer concurrently.
thread_local std::uint64_t g_fieldops = 0;

}  // namespace

const U256& P() { return kP; }
const U256& N() { return kN; }
const U256& B() { return kB; }
const U256& Gx() { return kGx; }
const U256& Gy() { return kGy; }

U256 reduce_p(const U512& x) {
  // NIST fast reduction for p256 (Hankerson-Menezes-Vanstone Alg. 2.29):
  // r = T + 2*S1 + 2*S2 + S3 + S4 - D1 - D2 - D3 - D4 mod p, with the
  // 32-bit word selections below (index 0 = least significant word).
  const std::uint32_t* c = x.w.data();
  std::int64_t acc[8];
  auto set = [&](int i, std::int64_t v) { acc[i] = v; };
  set(0, (std::int64_t)c[0] + c[8] + c[9] - c[11] - c[12] - c[13] - c[14]);
  set(1, (std::int64_t)c[1] + c[9] + c[10] - c[12] - c[13] - c[14] - c[15]);
  set(2, (std::int64_t)c[2] + c[10] + c[11] - c[13] - c[14] - c[15]);
  set(3, (std::int64_t)c[3] + 2 * (std::int64_t)c[11] + 2 * (std::int64_t)c[12] +
             c[13] - c[15] - c[8] - c[9]);
  set(4, (std::int64_t)c[4] + 2 * (std::int64_t)c[12] + 2 * (std::int64_t)c[13] +
             c[14] - c[9] - c[10]);
  set(5, (std::int64_t)c[5] + 2 * (std::int64_t)c[13] + 2 * (std::int64_t)c[14] +
             c[15] - c[10] - c[11]);
  set(6, (std::int64_t)c[6] + 2 * (std::int64_t)c[14] + 2 * (std::int64_t)c[15] +
             c[14] + c[13] - c[8] - c[9]);
  set(7, (std::int64_t)c[7] + 2 * (std::int64_t)c[15] + c[15] + c[8] - c[10] -
             c[11] - c[12] - c[13]);

  // Carry-propagate the signed accumulators into a U256 plus signed overflow.
  U256 r;
  std::int64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    const std::int64_t t = acc[i] + carry;
    r.w[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>(t & 0xffffffffLL);
    carry = t >> 32;  // arithmetic shift: floor division by 2^32
  }
  // Fold the +/- carry*2^256 term: 2^256 mod p == 2^256 - p.
  while (carry < 0) {
    carry += static_cast<std::int64_t>(add(r, r, kP));
  }
  while (carry > 0) {
    U256 t;
    const std::uint32_t borrow = sub(t, r, kP);
    r = t;
    carry -= static_cast<std::int64_t>(borrow);
  }
  while (cmp(r, kP) >= 0) {
    U256 t;
    sub(t, r, kP);
    r = t;
  }
  return r;
}

void reset_fieldop_count() { g_fieldops = 0; }
std::uint64_t fieldop_count() { return g_fieldops; }

U256 fadd(const U256& a, const U256& b) { return add_mod(a, b, kP); }
U256 fsub(const U256& a, const U256& b) { return sub_mod(a, b, kP); }

// The seed's field multiply and its cost model: the full product
// round-trips through U512 + reduce_p, and squaring is a general multiply.
U256 fmul(const U256& a, const U256& b) {
  ++g_fieldops;
  return reduce_p(mul(a, b));
}
U256 fsqr(const U256& a) { return fmul(a, a); }

namespace {

// --- 64-bit limb field layer ------------------------------------------------
//
// Every production point operation runs on a 4x64-bit limb representation
// (Fe) in the Montgomery domain: Fe holds x * 2^256 mod p. Values are
// canonical (< p). p = -1 mod 2^64 makes the per-word Montgomery quotient
// the low word itself (n0' = 1), so the reduction needs no quotient
// multiply. Conversions to/from U256 happen only at API boundaries.
struct Fe {
  std::uint64_t l[4];  // little-endian 64-bit limbs, Montgomery domain
};

constexpr Fe kPFe{{0xffffffffffffffffULL, 0x00000000ffffffffULL, 0ULL,
                   0xffffffff00000001ULL}};
// 2^256 mod p: Montgomery representation of 1.
constexpr Fe kMontOne{{0x0000000000000001ULL, 0xffffffff00000000ULL,
                       0xffffffffffffffffULL, 0x00000000fffffffeULL}};
// 2^512 mod p: multiplying by it (with Montgomery reduction) converts a
// plain residue into the Montgomery domain.
constexpr Fe kMontRR{{0x0000000000000003ULL, 0xfffffffbffffffffULL,
                      0xfffffffffffffffeULL, 0x00000004fffffffdULL}};

inline Fe fe_zero() { return Fe{{0, 0, 0, 0}}; }
inline Fe fe_one() { return kMontOne; }

inline bool fe_is_zero(const Fe& a) {
  return (a.l[0] | a.l[1] | a.l[2] | a.l[3]) == 0;
}

/// Equality of canonical (< p) representatives; in the Montgomery domain
/// this is exactly value equality.
inline bool fe_eq(const Fe& a, const Fe& b) {
  return ((a.l[0] ^ b.l[0]) | (a.l[1] ^ b.l[1]) | (a.l[2] ^ b.l[2]) |
          (a.l[3] ^ b.l[3])) == 0;
}

inline std::uint64_t fe_add_raw(Fe& r, const Fe& a, const Fe& b) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const __uint128_t t = static_cast<__uint128_t>(a.l[i]) + b.l[i] + carry;
    r.l[i] = static_cast<std::uint64_t>(t);
    carry = static_cast<std::uint64_t>(t >> 64);
  }
  return carry;
}

inline std::uint64_t fe_sub_raw(Fe& r, const Fe& a, const Fe& b) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const __uint128_t t =
        static_cast<__uint128_t>(a.l[i]) - b.l[i] - borrow;
    r.l[i] = static_cast<std::uint64_t>(t);
    borrow = static_cast<std::uint64_t>(t >> 64) & 1u;
  }
  return borrow;
}

/// a >= m on 4-limb values.
inline bool limbs_geq(const Fe& a, const Fe& m) {
  for (int i = 3; i >= 0; --i) {
    if (a.l[i] != m.l[i]) return a.l[i] > m.l[i];
  }
  return true;
}

inline bool fe_geq_p(const Fe& a) { return limbs_geq(a, kPFe); }

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  const std::uint64_t carry = fe_add_raw(r, a, b);
  if (carry || fe_geq_p(r)) {
    Fe t;
    fe_sub_raw(t, r, kPFe);
    r = t;
  }
  return r;
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  Fe r;
  if (fe_sub_raw(r, a, b)) {
    Fe t;
    fe_add_raw(t, r, kPFe);
    r = t;
  }
  return r;
}

/// Fused Montgomery multiply (CIOS): each round adds a.l[i] * b into a
/// six-limb accumulator and immediately folds with m = t0 (n0' = 1),
/// shifting down one limb. Unlike a separate wide-product + reduction pass,
/// the accumulator has no dynamically indexed carry ripple, so it lives
/// entirely in registers — measured ~2x lower latency per multiply on the
/// dependent chains that dominate scalar multiplication.
inline Fe fe_mul(const Fe& a, const Fe& b) {
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0;
#define ASECK_CIOS_ROUND(ai)                                                \
  {                                                                         \
    const std::uint64_t x = (ai);                                           \
    __uint128_t cc = static_cast<__uint128_t>(x) * b.l[0] + t0;             \
    t0 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += static_cast<__uint128_t>(x) * b.l[1] + t1;                        \
    t1 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += static_cast<__uint128_t>(x) * b.l[2] + t2;                        \
    t2 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += static_cast<__uint128_t>(x) * b.l[3] + t3;                        \
    t3 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += t4; t4 = static_cast<std::uint64_t>(cc);                          \
    t5 = static_cast<std::uint64_t>(cc >> 64);                              \
    const std::uint64_t m = t0;                                             \
    cc = static_cast<__uint128_t>(m) * kPFe.l[0] + t0; cc >>= 64;           \
    cc += static_cast<__uint128_t>(m) * kPFe.l[1] + t1;                     \
    t0 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += t2; /* p[2] == 0 */                                               \
    t1 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += static_cast<__uint128_t>(m) * kPFe.l[3] + t3;                     \
    t2 = static_cast<std::uint64_t>(cc); cc >>= 64;                         \
    cc += t4; t3 = static_cast<std::uint64_t>(cc);                          \
    t4 = t5 + static_cast<std::uint64_t>(cc >> 64);                         \
  }
  ASECK_CIOS_ROUND(a.l[0])
  ASECK_CIOS_ROUND(a.l[1])
  ASECK_CIOS_ROUND(a.l[2])
  ASECK_CIOS_ROUND(a.l[3])
#undef ASECK_CIOS_ROUND
  Fe r{{t0, t1, t2, t3}};
  if (t4 || fe_geq_p(r)) {
    Fe s;
    fe_sub_raw(s, r, kPFe);
    r = s;
  }
  return r;
}

/// Squaring reuses the CIOS multiply: the classic halve-the-cross-products
/// square needs a full-width shift-double pass whose carry chain costs more
/// than the duplicate multiplies save (measured: dedicated square 38 ns vs
/// CIOS a*a 30 ns on the dependent chain).
inline Fe fe_sqr(const Fe& a) { return fe_mul(a, a); }

/// Repacks a U256 into four 64-bit limbs (little-endian), no domain change.
inline Fe limbs_of(const U256& a) {
  Fe r;
  for (std::size_t i = 0; i < 4; ++i) {
    r.l[i] = std::uint64_t{a.w[2 * i]} | (std::uint64_t{a.w[2 * i + 1]} << 32);
  }
  return r;
}

inline U256 u256_of(const Fe& a) {
  U256 r;
  for (std::size_t i = 0; i < 4; ++i) {
    r.w[2 * i] = static_cast<std::uint32_t>(a.l[i]);
    r.w[2 * i + 1] = static_cast<std::uint32_t>(a.l[i] >> 32);
  }
  return r;
}

/// U256 -> Montgomery domain: one Montgomery multiply by 2^512 mod p. Any
/// 256-bit input is accepted and reduced mod p on the way in.
inline Fe fe_from(const U256& a) { return fe_mul(limbs_of(a), kMontRR); }

/// Montgomery domain -> U256: a Montgomery multiply by plain 1 (i.e. by
/// 1/R).
inline U256 fe_to(const Fe& a) { return u256_of(fe_mul(a, Fe{{1, 0, 0, 0}})); }

/// x^e for a Montgomery-domain x, with a fixed 4-bit window: a table of
/// x^1..x^15, then per nibble of e four squarings and one table multiply
/// (none for a zero nibble). `one` is the domain's Montgomery 1. Only the
/// fixed public exponent n - 2 goes through here (the field's p - 2 and
/// (p + 1) / 4 use the addition chains below), so every input costs the
/// same operation count.
template <class Mul>
Fe pow_window4(const Fe& x, const Fe& one, const U256& e, Mul mul) {
  Fe table[16];
  table[1] = x;
  for (int i = 2; i < 16; ++i) table[i] = mul(table[i - 1], x);
  Fe r = one;
  bool started = false;
  for (int i = 63; i >= 0; --i) {
    if (started) {
      for (int k = 0; k < 4; ++k) r = mul(r, r);
    }
    const unsigned d = (e.w[static_cast<std::size_t>(i / 8)] >>
                        (4u * static_cast<unsigned>(i % 8))) &
                       0xfu;
    if (d) {
      r = started ? mul(r, table[d]) : table[d];
      started = true;
    }
  }
  return r;
}

inline Fe fe_sqr_n(Fe a, int n) {
  while (n-- > 0) a = fe_sqr(a);
  return a;
}

/// x^(2^32 - 1), and x^(2^30 - 1) into *x30: the all-ones head that both
/// fixed exponents below share (31 squarings, 7 multiplies).
Fe fe_pow_ones32(const Fe& x, Fe* x30) {
  const Fe x2 = fe_mul(fe_sqr(x), x);
  const Fe x3 = fe_mul(fe_sqr(x2), x);
  const Fe x6 = fe_mul(fe_sqr_n(x3, 3), x3);
  const Fe x12 = fe_mul(fe_sqr_n(x6, 6), x6);
  const Fe x15 = fe_mul(fe_sqr_n(x12, 3), x3);
  *x30 = fe_mul(fe_sqr_n(x15, 15), x15);
  return fe_mul(fe_sqr_n(*x30, 2), x2);
}

/// Fermat inversion in the Montgomery domain: (aR)^(p-2) = a^-1 * R, along
/// a fixed addition chain for p - 2 = ffffffff 00000001 0^96 ffffffff
/// ffffffff fffffffd (255 squarings, 12 multiplies). Maps 0 to 0.
inline Fe fe_inv(const Fe& a) {
  Fe x30;
  const Fe x32 = fe_pow_ones32(a, &x30);
  Fe t = fe_mul(fe_sqr_n(x32, 32), a);  // ffffffff 00000001
  t = fe_sqr_n(t, 96);                   // 0^96
  t = fe_mul(fe_sqr_n(t, 32), x32);      // ffffffff
  t = fe_mul(fe_sqr_n(t, 32), x32);      // ffffffff
  t = fe_mul(fe_sqr_n(t, 30), x30);      // fffffffd = (2^30 - 1) << 2 | 1
  return fe_mul(fe_sqr_n(t, 2), a);
}

/// a^((p+1)/4), the square root of a whenever a is a quadratic residue
/// (p == 3 mod 4): (p+1)/4 = (2^32 - 1) << 222 | 1 << 190 | 1 << 94
/// (253 squarings, 9 multiplies).
inline Fe fe_sqrt_candidate(const Fe& a) {
  Fe x30;
  const Fe x32 = fe_pow_ones32(a, &x30);
  Fe t = fe_mul(fe_sqr_n(x32, 32), a);
  t = fe_mul(fe_sqr_n(t, 96), a);
  return fe_sqr_n(t, 94);
}

/// x^3 - 3x + b, the right-hand side of the curve equation.
Fe curve_rhs(const Fe& x) {
  static const Fe bf = fe_from(kB);
  const Fe x3 = fe_mul(fe_sqr(x), x);
  const Fe three_x = fe_add(fe_add(x, x), x);
  return fe_add(fe_sub(x3, three_x), bf);
}

// --- Scalar arithmetic mod n --------------------------------------------------
//
// The same 4x64-bit CIOS Montgomery multiply as fe_mul, but n has no special
// form: every round needs the quotient m = t0 * (-n^-1 mod 2^64) and all four
// limb products of m * n.

constexpr Fe kNFe{{0xf3b9cac2fc632551ULL, 0xbce6faada7179e84ULL,
                   0xffffffffffffffffULL, 0xffffffff00000000ULL}};
constexpr std::uint64_t kNInv64 = 0xccd1c8aaee00bc4fULL;  // -n^-1 mod 2^64
// 2^256 mod n: Montgomery representation of 1.
constexpr Fe kNMontOne{{0x0c46353d039cdaafULL, 0x4319055258e8617bULL, 0ULL,
                        0x00000000ffffffffULL}};
// 2^512 mod n: Montgomery multiplying by it enters the domain.
constexpr Fe kNMontRR{{0x83244c95be79eea2ULL, 0x4699799c49bd6fa6ULL,
                       0x2845b2392b6bec59ULL, 0x66e12d94f3d95620ULL}};

/// a * b / 2^256 mod n. Valid whenever a * b < n * 2^256 (e.g. a < 2^256
/// and b < n): the accumulator then ends below 2n, and one conditional
/// subtract normalises it.
inline Fe nm_mul(const Fe& a, const Fe& b) {
  std::uint64_t t[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    __uint128_t cc = 0;
    for (int j = 0; j < 4; ++j) {
      cc += static_cast<__uint128_t>(a.l[i]) * b.l[j] + t[j];
      t[j] = static_cast<std::uint64_t>(cc);
      cc >>= 64;
    }
    cc += t[4];
    t[4] = static_cast<std::uint64_t>(cc);
    const std::uint64_t hi = static_cast<std::uint64_t>(cc >> 64);
    const std::uint64_t m = t[0] * kNInv64;
    cc = (static_cast<__uint128_t>(m) * kNFe.l[0] + t[0]) >> 64;
    for (int j = 1; j < 4; ++j) {
      cc += static_cast<__uint128_t>(m) * kNFe.l[j] + t[j];
      t[j - 1] = static_cast<std::uint64_t>(cc);
      cc >>= 64;
    }
    cc += t[4];
    t[3] = static_cast<std::uint64_t>(cc);
    t[4] = hi + static_cast<std::uint64_t>(cc >> 64);
  }
  Fe r{{t[0], t[1], t[2], t[3]}};
  if (t[4] || limbs_geq(r, kNFe)) {
    Fe s;
    fe_sub_raw(s, r, kNFe);
    r = s;
  }
  return r;
}

// --- point ops on Fe --------------------------------------------------------

struct AffFe {
  Fe x, y;
  bool inf;
};

struct JacFe {
  Fe x, y, z;  // z == 0 encodes infinity, same as JacobianPoint
};

inline JacFe jacfe_infinity() { return JacFe{fe_zero(), fe_zero(), fe_zero()}; }
inline bool jacfe_is_inf(const JacFe& p) { return fe_is_zero(p.z); }

inline JacFe jacfe_from_aff(const AffFe& q) {
  return JacFe{q.x, q.y, fe_one()};
}

inline AffFe afffe_from(const AffinePoint& p) {
  return AffFe{fe_from(p.x), fe_from(p.y), p.infinity};
}

inline JacobianPoint jacfe_to(const JacFe& p) {
  return JacobianPoint{fe_to(p.x), fe_to(p.y), fe_to(p.z)};
}

/// Negation of a finite affine point: (x, p - y). No P-256 point has y == 0
/// (the curve has prime order and b != 0), so p - y stays in [1, p).
inline AffFe afffe_neg(const AffFe& a) {
  return AffFe{a.x, fe_sub(fe_zero(), a.y), false};
}

/// dbl-2001-b (a = -3), the same formula as the reference dbl().
JacFe dbl_fe(const JacFe& p) {
  if (jacfe_is_inf(p) || fe_is_zero(p.y)) return jacfe_infinity();
  const Fe delta = fe_sqr(p.z);
  const Fe gamma = fe_sqr(p.y);
  const Fe beta = fe_mul(p.x, gamma);
  const Fe xmd = fe_sub(p.x, delta);
  const Fe alpha = fe_mul(fe_add(fe_add(xmd, xmd), xmd), fe_add(p.x, delta));
  const Fe beta2 = fe_add(beta, beta);
  const Fe beta4 = fe_add(beta2, beta2);
  const Fe beta8 = fe_add(beta4, beta4);
  JacFe r;
  r.x = fe_sub(fe_sqr(alpha), beta8);
  r.z = fe_sub(fe_sub(fe_sqr(fe_add(p.y, p.z)), gamma), delta);
  const Fe gamma2 = fe_sqr(gamma);
  const Fe g2 = fe_add(gamma2, gamma2);
  const Fe g4 = fe_add(g2, g2);
  const Fe g8 = fe_add(g4, g4);
  r.y = fe_sub(fe_mul(alpha, fe_sub(beta4, r.x)), g8);
  return r;
}

/// Mixed addition, the same formula as the reference add_mixed().
JacFe add_mixed_fe(const JacFe& p, const AffFe& q) {
  if (q.inf) return p;
  if (jacfe_is_inf(p)) return jacfe_from_aff(q);
  const Fe z1z1 = fe_sqr(p.z);
  const Fe u2 = fe_mul(q.x, z1z1);
  const Fe s2 = fe_mul(fe_mul(q.y, p.z), z1z1);
  const Fe h = fe_sub(u2, p.x);
  const Fe r_ = fe_sub(s2, p.y);
  if (fe_is_zero(h)) {
    if (fe_is_zero(r_)) return dbl_fe(p);
    return jacfe_infinity();
  }
  const Fe h2 = fe_sqr(h);
  const Fe h3 = fe_mul(h2, h);
  const Fe x1h2 = fe_mul(p.x, h2);
  JacFe out;
  out.x = fe_sub(fe_sub(fe_sqr(r_), h3), fe_add(x1h2, x1h2));
  out.y = fe_sub(fe_mul(r_, fe_sub(x1h2, out.x)), fe_mul(p.y, h3));
  out.z = fe_mul(p.z, h);
  return out;
}

/// General Jacobian + Jacobian addition (12M + 4S). Used to build odd
/// multiples without an affine (inversion) step per entry.
JacFe add_fe(const JacFe& p, const JacFe& q) {
  if (jacfe_is_inf(p)) return q;
  if (jacfe_is_inf(q)) return p;
  const Fe z1z1 = fe_sqr(p.z);
  const Fe z2z2 = fe_sqr(q.z);
  const Fe u1 = fe_mul(p.x, z2z2);
  const Fe u2 = fe_mul(q.x, z1z1);
  const Fe s1 = fe_mul(fe_mul(p.y, q.z), z2z2);
  const Fe s2 = fe_mul(fe_mul(q.y, p.z), z1z1);
  const Fe h = fe_sub(u2, u1);
  const Fe r_ = fe_sub(s2, s1);
  if (fe_is_zero(h)) {
    if (fe_is_zero(r_)) return dbl_fe(p);
    return jacfe_infinity();
  }
  const Fe h2 = fe_sqr(h);
  const Fe h3 = fe_mul(h2, h);
  const Fe u1h2 = fe_mul(u1, h2);
  JacFe out;
  out.x = fe_sub(fe_sub(fe_sqr(r_), h3), fe_add(u1h2, u1h2));
  out.y = fe_sub(fe_mul(r_, fe_sub(u1h2, out.x)), fe_mul(s1, h3));
  out.z = fe_mul(fe_mul(p.z, q.z), h);
  return out;
}

/// Converts m Jacobian points to affine with a single field inversion
/// (Montgomery's trick: prefix products, one inversion, walk back).
/// Infinity entries are skipped — their z == 0 would poison the product
/// chain — and map to affine infinity.
void jacfe_batch_affine_n(const JacFe* in, AffFe* out, std::size_t m) {
  std::vector<Fe> prefix(m);
  Fe acc = fe_one();
  for (std::size_t i = 0; i < m; ++i) {
    prefix[i] = acc;
    if (!jacfe_is_inf(in[i])) acc = fe_mul(acc, in[i].z);
  }
  Fe inv = fe_inv(acc);
  for (std::size_t i = m; i-- > 0;) {
    if (jacfe_is_inf(in[i])) {
      out[i] = AffFe{fe_zero(), fe_zero(), true};
      continue;
    }
    const Fe zinv = fe_mul(inv, prefix[i]);
    inv = fe_mul(inv, in[i].z);
    const Fe z2 = fe_sqr(zinv);
    out[i] = AffFe{fe_mul(in[i].x, z2), fe_mul(in[i].y, fe_mul(z2, zinv)),
                   false};
  }
}

/// out[m] = (2m+1)P for m in [0, count), in Jacobian form: one doubling,
/// then chained general additions of 2P, with no inversion per entry
/// (callers normalise with one jacfe_batch_affine_n).
void odd_multiples(const AffFe& p, int count, JacFe* out) {
  out[0] = jacfe_from_aff(p);
  const JacFe p2 = dbl_fe(out[0]);
  if (count > 1) out[1] = add_mixed_fe(p2, p);  // 3P
  for (int m = 2; m < count; ++m) out[m] = add_fe(out[m - 1], p2);
}

// --- Fixed-base tables for k*G ----------------------------------------------
//
// comb[i * 15 + j - 1] = j * 2^(4i) * G (affine), i in [0, 64), j in [1, 16).
// Processing k one nibble at a time turns k*G into at most 64 mixed
// additions with zero doublings. odd_g[m] = (2m+1) * G feeds the width-8
// wNAF G term of multi_scalar_mult. ~72 KiB total, built lazily once.

constexpr int kCombWindows = 64;   // 256 bits / 4-bit teeth
constexpr int kCombEntries = 15;   // digits 1..15
constexpr int kOddG = 64;          // 1G, 3G, ..., 127G (width-8 wNAF)

struct FixedBaseTables {
  AffFe comb[kCombWindows * kCombEntries];
  AffFe odd_g[kOddG];
};

const FixedBaseTables& fixed_base() {
  static const FixedBaseTables tables = [] {
    FixedBaseTables t;
    const AffFe g = afffe_from(generator());
    // Window bases B_i = 2^(4i) * G, then one batch inversion.
    JacFe bases[kCombWindows];
    bases[0] = jacfe_from_aff(g);
    for (int i = 1; i < kCombWindows; ++i) {
      bases[i] = bases[i - 1];
      for (int d = 0; d < 4; ++d) bases[i] = dbl_fe(bases[i]);
    }
    AffFe bases_aff[kCombWindows];
    jacfe_batch_affine_n(bases, bases_aff, kCombWindows);
    // Entries j * B_i by chained mixed additions, then one batch inversion.
    std::vector<JacFe> entries;
    entries.reserve(kCombWindows * kCombEntries);
    for (const AffFe& base : bases_aff) {
      JacFe acc = jacfe_from_aff(base);
      for (int j = 1; j <= kCombEntries; ++j) {
        entries.push_back(acc);
        if (j < kCombEntries) acc = add_mixed_fe(acc, base);
      }
    }
    jacfe_batch_affine_n(entries.data(), t.comb, entries.size());
    // Odd multiples 1G..127G, one batch inversion (all one-time cost).
    JacFe odd[kOddG];
    odd_multiples(g, kOddG, odd);
    jacfe_batch_affine_n(odd, t.odd_g, kOddG);
    return t;
  }();
  return tables;
}

// --- wNAF expansion ---------------------------------------------------------

/// Width-w non-adjacent form, w in [2, 8]: digits[i] are 0 or odd with
/// |d| <= 2^(w-1) - 1, at most one nonzero digit per w consecutive
/// positions. Returns the digit count (<= 257 for any 256-bit k; the buffer
/// is sized with headroom).
constexpr std::size_t kMaxWnafDigits = 260;

int wnaf(const U256& k, int width, std::int8_t* digits) {
  // Scans the 64-bit limbs for the next set bit (with the pending carry)
  // and consumes a whole window there, instead of shifting the scalar one
  // bit at a time.
  const Fe s = limbs_of(k);
  const auto bits = [&s](int pos, int count) {
    const int limb = pos >> 6, off = pos & 63;
    std::uint64_t v = limb < 4 ? s.l[limb] >> off : 0;
    if (off + count > 64 && limb + 1 < 4) v |= s.l[limb + 1] << (64 - off);
    return static_cast<int>(v & ((std::uint64_t{1} << count) - 1));
  };
  // One position past the top bit takes the final carry of a negative digit.
  const int len = k.top_bit() + 2;
  std::memset(digits, 0, static_cast<std::size_t>(len));
  int carry = 0, n = 0;
  for (int bit = 0; bit < len;) {
    if (bits(bit, 1) == carry) {  // bit + carry is even: a zero digit
      ++bit;
      continue;
    }
    const int now = std::min(width, len - bit);
    int d = bits(bit, now) + carry;  // odd, in [1, 2^width - 1]
    carry = (d >> (width - 1)) & 1;
    d -= carry << width;
    digits[bit] = static_cast<std::int8_t>(d);
    n = bit + 1;
    bit += now;
  }
  return n;
}

}  // namespace

U256 finv(const U256& a) { return fe_to(fe_inv(fe_from(a))); }

struct OddMultiples::Entries {
  AffFe odd[kOddG];
};

OddMultiples::OddMultiples(const AffinePoint& p)
    : point_(p), entries_(std::make_unique<Entries>()) {
  if (!on_curve(p)) {
    throw std::invalid_argument("OddMultiples: point not on the curve");
  }
  JacFe odd[kOddG];
  odd_multiples(afffe_from(p), kOddG, odd);
  jacfe_batch_affine_n(odd, entries_->odd, kOddG);
}

OddMultiples::~OddMultiples() = default;

U256 nreduce(const U256& x) {
  U256 r;
  return sub(r, x, kN) ? x : r;
}

U256 nmul(const U256& a, const U256& b) {
  return u256_of(nm_mul(nm_mul(limbs_of(a), kNMontRR), limbs_of(b)));
}

U256 ninv(const U256& a) {
  static const U256 kNMinus2 = [] {
    U256 e;
    sub(e, kN, U256::from_u64(2));
    return e;
  }();
  const Fe x = nm_mul(limbs_of(a), kNMontRR);  // a * R mod n
  const Fe y =
      pow_window4(x, kNMontOne, kNMinus2,
                  [](const Fe& u, const Fe& v) { return nm_mul(u, v); });
  return u256_of(nm_mul(y, Fe{{1, 0, 0, 0}}));
}

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) {
  if (p.infinity) return make_infinity();
  return JacobianPoint{p.x, p.y, U256::one()};
}

namespace {
/// One field inversion: (X / Z^2, Y / Z^3), or infinity when Z == 0.
AffinePoint jacfe_to_affine(const JacFe& p) {
  if (jacfe_is_inf(p)) return AffinePoint::make_infinity();
  const Fe zinv = fe_inv(p.z);
  const Fe zinv2 = fe_sqr(zinv);
  return AffinePoint{fe_to(fe_mul(p.x, zinv2)),
                     fe_to(fe_mul(p.y, fe_mul(zinv2, zinv))), false};
}
}  // namespace

AffinePoint to_affine(const JacobianPoint& p) {
  return jacfe_to_affine(JacFe{fe_from(p.x), fe_from(p.y), fe_from(p.z)});
}

bool x_equals_mod_n(const JacobianPoint& pt, const U256& r) {
  if (pt.is_infinity()) return false;
  // x = X / Z^2, so x == r  <=>  X == r * Z^2 (mod p), with no inversion.
  const Fe x = fe_from(pt.x);
  const Fe z2 = fe_sqr(fe_from(pt.z));
  if (fe_eq(fe_mul(fe_from(r), z2), x)) return true;
  // p < 2n, so x = r + n is the only other field element with x mod n == r,
  // and only when it is actually < p, i.e. r < p - n.
  U256 p_minus_n;
  sub(p_minus_n, kP, kN);
  if (cmp(r, p_minus_n) < 0) {
    U256 rn;
    add(rn, r, kN);  // no carry: r + n < p < 2^256
    return fe_eq(fe_mul(fe_from(rn), z2), x);
  }
  return false;
}

// --- Seed-cost reference tier -----------------------------------------------
//
// dbl/add_mixed/add on U256 run on the counted fmul/fsqr above, so every
// field op pays the seed's U512 round trip. scalar_mult, scalar_mult_ladder
// and double_scalar_mult_shamir use them: they are the differential
// oracles, the honest E17 baseline, and the leakage demo's fieldop_count
// ledger. No production path calls them.

JacobianPoint dbl(const JacobianPoint& p) {
  if (p.is_infinity() || p.y.is_zero()) return JacobianPoint::make_infinity();
  // dbl-2001-b (a = -3):
  const U256 delta = fsqr(p.z);
  const U256 gamma = fsqr(p.y);
  const U256 beta = fmul(p.x, gamma);
  const U256 xmd = fsub(p.x, delta);
  const U256 alpha =
      fmul(fadd(fadd(xmd, xmd), xmd), fadd(p.x, delta));  // 3(x-d)(x+d)
  const U256 beta2 = fadd(beta, beta);
  const U256 beta4 = fadd(beta2, beta2);
  const U256 beta8 = fadd(beta4, beta4);
  JacobianPoint r;
  r.x = fsub(fsqr(alpha), beta8);
  r.z = fsub(fsub(fsqr(fadd(p.y, p.z)), gamma), delta);
  const U256 gamma2 = fsqr(gamma);
  const U256 gamma2_2 = fadd(gamma2, gamma2);
  const U256 gamma2_4 = fadd(gamma2_2, gamma2_2);
  const U256 gamma2_8 = fadd(gamma2_4, gamma2_4);
  r.y = fsub(fmul(alpha, fsub(beta4, r.x)), gamma2_8);
  return r;
}

JacobianPoint add_mixed(const JacobianPoint& p, const AffinePoint& q) {
  if (q.infinity) return p;
  if (p.is_infinity()) return JacobianPoint::from_affine(q);
  const U256 z1z1 = fsqr(p.z);
  const U256 u2 = fmul(q.x, z1z1);
  const U256 s2 = fmul(fmul(q.y, p.z), z1z1);
  const U256 h = fsub(u2, p.x);
  const U256 r_ = fsub(s2, p.y);
  if (h.is_zero()) {
    if (r_.is_zero()) return dbl(p);
    return JacobianPoint::make_infinity();
  }
  const U256 h2 = fsqr(h);
  const U256 h3 = fmul(h2, h);
  const U256 x1h2 = fmul(p.x, h2);
  JacobianPoint out;
  out.x = fsub(fsub(fsqr(r_), h3), fadd(x1h2, x1h2));
  out.y = fsub(fmul(r_, fsub(x1h2, out.x)), fmul(p.y, h3));
  out.z = fmul(p.z, h);
  return out;
}

JacobianPoint add(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  return add_mixed(p, to_affine(q));
}

JacobianPoint scalar_mult(const U256& k, const AffinePoint& p) {
  JacobianPoint r = JacobianPoint::make_infinity();
  const int top = k.top_bit();
  for (int i = top; i >= 0; --i) {
    r = dbl(r);
    if (k.bit(static_cast<unsigned>(i))) r = add_mixed(r, p);
  }
  return r;
}

JacobianPoint scalar_mult_ladder(const U256& k, const AffinePoint& p,
                                 unsigned bits) {
  // Classic X-then-add ladder over (R0, R1) with R1 - R0 = P invariant.
  // Every iteration performs exactly one dbl and one add regardless of the
  // key bit, so the op count (and thus time in a software model) is
  // independent of k. Note: the *selection* below is still data-dependent
  // branching at the C++ level; real hardened code uses constant-time swaps.
  JacobianPoint r0 = JacobianPoint::make_infinity();
  JacobianPoint r1 = JacobianPoint::from_affine(p);
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    const bool bit = k.bit(static_cast<unsigned>(i));
    if (bit) {
      r0 = add(r0, r1);
      r1 = dbl(r1);
    } else {
      r1 = add(r0, r1);
      r0 = dbl(r0);
    }
  }
  return r0;
}

JacobianPoint double_scalar_mult_shamir(const U256& u1, const U256& u2,
                                        const AffinePoint& q) {
  // Shamir's trick: interleaved double-and-add with precomputed G+Q.
  const AffinePoint g = generator();
  const JacobianPoint gq_j = add_mixed(JacobianPoint::from_affine(g), q);
  // G + Q is infinite when q == -G; the affine sum only exists when finite.
  const AffinePoint gq =
      gq_j.is_infinity() ? AffinePoint::make_infinity() : to_affine(gq_j);
  JacobianPoint r = JacobianPoint::make_infinity();
  const int top = std::max(u1.top_bit(), u2.top_bit());
  for (int i = top; i >= 0; --i) {
    r = dbl(r);
    const bool b1 = u1.bit(static_cast<unsigned>(i));
    const bool b2 = u2.bit(static_cast<unsigned>(i));
    if (b1 && b2) {
      r = gq.infinity ? r : add_mixed(r, gq);
    } else if (b1) {
      r = add_mixed(r, g);
    } else if (b2) {
      r = add_mixed(r, q);
    }
  }
  return r;
}

// --- Production kernels on Fe ------------------------------------------------

void init_fixed_base_tables() { (void)fixed_base(); }

namespace {
/// r + k*G on the comb: one mixed addition per nonzero nibble of k.
JacFe comb_fe(const FixedBaseTables& t, const U256& k,
              JacFe r = jacfe_infinity()) {
  for (int i = 0; i < kCombWindows; ++i) {
    const unsigned d = (k.w[static_cast<std::size_t>(i / 8)] >>
                        (4u * static_cast<unsigned>(i % 8))) &
                       0xfu;
    if (d) r = add_mixed_fe(r, t.comb[i * kCombEntries + (d - 1)]);
  }
  return r;
}
}  // namespace

JacobianPoint scalar_mult_base(const U256& k) {
  return jacfe_to(comb_fe(fixed_base(), k));
}

JacobianPoint add_scalar_mult_base(const JacobianPoint& p, const U256& k) {
  return jacfe_to(comb_fe(fixed_base(), k,
                          JacFe{fe_from(p.x), fe_from(p.y), fe_from(p.z)}));
}

AffinePoint scalar_mult_base_affine(const U256& k) {
  return jacfe_to_affine(comb_fe(fixed_base(), k));
}

std::optional<AffinePoint> decompress(const U256& x, bool y_odd) {
  if (cmp(x, kP) >= 0) return std::nullopt;
  const Fe rhs = curve_rhs(fe_from(x));
  Fe y = fe_sqrt_candidate(rhs);
  if (!fe_eq(fe_sqr(y), rhs)) return std::nullopt;  // non-residue: no point
  U256 yu = fe_to(y);
  if (yu.is_odd() != y_odd) {
    y = fe_sub(fe_zero(), y);
    yu = fe_to(y);
    // Only y == 0 is parity-fixed under negation; no P-256 point has it
    // (b != 0, prime order), so a residual mismatch means no such point.
    if (yu.is_odd() != y_odd) return std::nullopt;
  }
  return AffinePoint{x, yu, false};
}

namespace {
/// wNAF width of a dynamic term, from its scalar's bit length. A width-w
/// table costs one doubling, 2^(w-2) - 1 additions and a normalisation per
/// entry; the chain then pays about bits/(w+1) mixed additions. Width 3 (two
/// entries) is cheapest for the RLC's 64-bit randomizers, width 5 (eight)
/// for full mod-n scalars, width 4 in between.
int term_width(int bits) { return bits <= 96 ? 3 : bits <= 192 ? 4 : 5; }
}  // namespace

JacobianPoint multi_scalar_mult(const U256& g_scalar,
                                const std::vector<MultiScalarTerm>& terms) {
  std::int8_t dg[kMaxWnafDigits];
  const int ng = g_scalar.is_zero() ? 0 : wnaf(g_scalar, 8, dg);

  // Term i's table rows are jac[row[i], row[i+1]): its odd multiples
  // P, 3P, ..., (2^(w-1) - 1)P. Skipped terms get no row.
  const std::size_t nt = terms.size();
  std::vector<std::array<std::int8_t, kMaxWnafDigits>> digits(nt);
  std::vector<int> nd(nt, 0);
  std::vector<std::size_t> row(nt + 1, 0);
  int top = ng;
  // A precomputed table stands in only for its own point.
  std::vector<const AffFe*> fixed(nt, nullptr);
  for (std::size_t i = 0; i < nt; ++i) {
    row[i + 1] = row[i];
    if (terms[i].point.infinity || terms[i].scalar.is_zero()) continue;
    if (terms[i].table && terms[i].table->point() == terms[i].point) {
      fixed[i] = terms[i].table->entries().odd;
      nd[i] = wnaf(terms[i].scalar, 8, digits[i].data());
    } else {
      const int w = term_width(terms[i].scalar.top_bit() + 1);
      nd[i] = wnaf(terms[i].scalar, w, digits[i].data());
      row[i + 1] += std::size_t{1} << (w - 2);
    }
    top = std::max(top, nd[i]);
  }

  // The rows of ALL terms are chained in Jacobian form and normalised to
  // affine with one shared batch inversion.
  std::vector<JacFe> jac(row[nt]);
  for (std::size_t i = 0; i < nt; ++i) {
    if (nd[i] != 0 && !fixed[i]) {
      odd_multiples(afffe_from(terms[i].point),
                    static_cast<int>(row[i + 1] - row[i]), &jac[row[i]]);
    }
  }
  std::vector<AffFe> table(jac.size());
  jacfe_batch_affine_n(jac.data(), table.data(), jac.size());

  // One shared doubling chain for every term (the Straus interleaving).
  const FixedBaseTables& t = fixed_base();
  JacFe r = jacfe_infinity();
  for (int i = top; i-- > 0;) {
    r = dbl_fe(r);
    if (i < ng && dg[i] != 0) {
      const AffFe& m = t.odd_g[(dg[i] > 0 ? dg[i] : -dg[i]) / 2];
      r = add_mixed_fe(r, dg[i] > 0 ? m : afffe_neg(m));
    }
    for (std::size_t j = 0; j < nt; ++j) {
      if (i >= nd[j]) continue;
      const int d = digits[j][static_cast<std::size_t>(i)];
      if (d == 0) continue;
      const std::size_t k = static_cast<std::size_t>((d > 0 ? d : -d) / 2);
      const AffFe& m = fixed[j] ? fixed[j][k] : table[row[j] + k];
      if (!m.inf) r = add_mixed_fe(r, d > 0 ? m : afffe_neg(m));
    }
  }
  return jacfe_to(r);
}

bool on_curve(const AffinePoint& p) {
  if (p.infinity) return false;
  if (cmp(p.x, kP) >= 0 || cmp(p.y, kP) >= 0) return false;
  // y^2 == x^3 - 3x + b
  const Fe y = fe_from(p.y);
  return fe_eq(fe_sqr(y), curve_rhs(fe_from(p.x)));
}

AffinePoint generator() { return AffinePoint{kGx, kGy, false}; }

}  // namespace aseck::crypto::p256
