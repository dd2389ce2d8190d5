#pragma once
// NIST P-256 (secp256r1) elliptic curve arithmetic: field and scalar
// arithmetic, Jacobian-coordinate point operations, and scalar
// multiplication.
//
// Two tiers exist, and only one of them is production code:
//  * production runs on an internal 64-bit-limb Montgomery field element
//    (Fe) for every point operation: the fixed-base 4-bit comb for k*G,
//    whose one affine path is scalar_mult_base_affine (keygen, signing
//    and certificate issuance), one Straus/wNAF kernel, multi_scalar_mult,
//    for every variable-base product (single, implicit-certificate and batch
//    verification, ECDH) — each dynamic term's wNAF width follows its
//    scalar's bit length, so 64-bit RLC randomizers build two-entry
//    tables, and a long-lived point's OddMultiples table replaces its
//    per-call one — the fixed-base table build, decompress,
//    to_affine, x_equals_mod_n and on_curve. Field inversion (finv and the
//    shared batch inversion) is Fermat a^(p-2) on the same multiply, along
//    a fixed addition chain, as is decompress's square root a^((p+1)/4).
//    Scalars mod n run on nreduce/nmul/ninv, a 4x64-bit CIOS Montgomery
//    core;
//  * the U256 tier (fmul/fsqr, dbl, add_mixed, add, scalar_mult,
//    scalar_mult_ladder, double_scalar_mult_shamir) is the counted
//    seed-cost reference: every field multiply round-trips through U512 +
//    reduce_p as the seed did, and bumps fieldop_count(). It exists for
//    differential tests, the E17 slow arm and the leakage demonstration;
//    no production path calls it. The generic routines in u256.hpp are
//    likewise only oracles.
//
// NOTE: scalar multiplication here is *not* constant-time; timing leakage of
// long-lived keys is exactly one of the side-channel classes the paper
// discusses, and src/sidechannel models it explicitly. Production silicon
// would use a hardened ladder.

#include <memory>
#include <optional>
#include <vector>

#include "crypto/u256.hpp"

namespace aseck::crypto::p256 {

/// Field prime p, curve order n, and curve parameter b (a = -3).
const U256& P();
const U256& N();
const U256& B();
/// Base point (affine).
const U256& Gx();
const U256& Gy();

// --- Field arithmetic mod p -------------------------------------------------

U256 fadd(const U256& a, const U256& b);
U256 fsub(const U256& a, const U256& b);
/// Seed-cost reference multiply: mul() to U512, then reduce_p. Counted by
/// fieldop_count(). fsqr is fmul(a, a).
U256 fmul(const U256& a, const U256& b);
U256 fsqr(const U256& a);
/// a^-1 mod p by Fermat (a^(p-2), a fixed addition chain on the Montgomery
/// multiply). Returns 0 for a == 0 mod p; callers must not rely on that as
/// an inverse.
U256 finv(const U256& a);
/// Reduces an arbitrary 512-bit value mod p (NIST fast reduction).
U256 reduce_p(const U512& x);

// --- Scalar arithmetic mod n -------------------------------------------------

/// x mod n for any 256-bit x: n > 2^255, so x < 2n and one conditional
/// subtract suffices.
U256 nreduce(const U256& x);
/// (a * b) mod n for any 256-bit a, b (CIOS Montgomery multiply by R^2 mod n,
/// then by b). The result is fully reduced.
U256 nmul(const U256& a, const U256& b);
/// a^-1 mod n by Fermat (a^(n-2), fixed 4-bit window on the same core).
/// Returns 0 for a == 0 mod n; callers must not rely on that as an inverse.
U256 ninv(const U256& a);

// --- Points ------------------------------------------------------------------

/// Affine point; infinity encoded by `infinity == true`.
struct AffinePoint {
  U256 x, y;
  bool infinity = false;

  static AffinePoint make_infinity() { return AffinePoint{{}, {}, true}; }
  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

/// Jacobian point (X/Z^2, Y/Z^3); infinity encoded by Z == 0.
struct JacobianPoint {
  U256 x, y, z;

  static JacobianPoint make_infinity() { return JacobianPoint{}; }
  static JacobianPoint from_affine(const AffinePoint& p);
  bool is_infinity() const { return z.is_zero(); }
};

AffinePoint to_affine(const JacobianPoint& p);

// Reference tier (U256 fmul/fsqr, counted): see the file comment.
JacobianPoint dbl(const JacobianPoint& p);
/// Mixed addition: Jacobian + affine.
JacobianPoint add_mixed(const JacobianPoint& p, const AffinePoint& q);
JacobianPoint add(const JacobianPoint& p, const JacobianPoint& q);

/// k * P for affine P. k is used as-is (callers reduce mod n when required).
JacobianPoint scalar_mult(const U256& k, const AffinePoint& p);
/// Montgomery-ladder scalar multiplication: performs the same point-
/// operation sequence for every k of a given bit length (the constant-time
/// countermeasure to the timing/SPA leakage of double-and-add). `bits`
/// fixes the ladder length (use 256 for secret scalars).
JacobianPoint scalar_mult_ladder(const U256& k, const AffinePoint& p,
                                 unsigned bits = 256);
/// Reference 1-bit interleaved Shamir double-and-add: the seed's verify
/// kernel, kept as the slow path for bit-for-bit equivalence tests and the
/// E17 slow-vs-fast sweep.
JacobianPoint double_scalar_mult_shamir(const U256& u1, const U256& u2,
                                        const AffinePoint& q);
/// Field-operation counters (mul+sqr) for the leakage demonstration; reset
/// and read around a scalar multiplication on the same thread. They count
/// the U256 reference tier (`fmul`/`fsqr`) only, not the Fe production path.
void reset_fieldop_count();
std::uint64_t fieldop_count();

/// k * G via the fixed-base 4-bit comb table (64 windows x 15 odd/even
/// multiples of G, built once on first use).
JacobianPoint scalar_mult_base(const U256& k);
/// p + k * G on the same comb, accumulating onto p (no doublings): the
/// G term of a verify whose other terms had to be checked on their own.
JacobianPoint add_scalar_mult_base(const JacobianPoint& p, const U256& k);
/// k * G in affine form: the comb, then one field inversion. A zero scalar
/// (or n) maps to infinity. This is the only comb-to-affine path: key
/// generation, signing and implicit-certificate issuance call it.
AffinePoint scalar_mult_base_affine(const U256& k);
/// True iff pt's affine x-coordinate reduced mod the curve order equals r
/// (the final ECDSA verification comparison, 0 < r < n). Tests the
/// congruence X == r * Z^2 (mod p) — and the r + n second candidate —
/// instead of paying a field inversion for the affine conversion.
bool x_equals_mod_n(const JacobianPoint& pt, const U256& r);

/// Recovers the affine point with the given x-coordinate and y-parity
/// (SEC1 compressed form). Returns nullopt when x >= p or x is not the
/// x-coordinate of any curve point. Since p == 3 (mod 4) the square root is
/// a single exponentiation by (p+1)/4.
std::optional<AffinePoint> decompress(const U256& x, bool y_odd);

/// Odd multiples P, 3P, ..., 127P of a long-lived base point (a CA key),
/// affine, built once with one shared inversion. A multi_scalar_mult term
/// that points at the table of its own point skips the per-call table and
/// recodes its scalar at width 8, like the G term.
class OddMultiples {
 public:
  /// p must be finite and on the curve; throws std::invalid_argument
  /// otherwise.
  explicit OddMultiples(const AffinePoint& p);
  ~OddMultiples();
  OddMultiples(const OddMultiples&) = delete;
  OddMultiples& operator=(const OddMultiples&) = delete;

  const AffinePoint& point() const { return point_; }
  struct Entries;  // the affine multiples, in p256.cpp's field form
  const Entries& entries() const { return *entries_; }

 private:
  AffinePoint point_;
  std::unique_ptr<Entries> entries_;
};

/// One term of a multi-scalar multiplication: scalar * point. `table`, if
/// set and built for this very point, stands in for the per-call table.
struct MultiScalarTerm {
  U256 scalar;
  AffinePoint point;
  const OddMultiples* table = nullptr;
};

/// g_scalar*G + sum_i terms[i].scalar * terms[i].point over ONE shared
/// doubling chain (Straus/interleaved wNAF): the G term reuses the static
/// width-8 odd-G table; each dynamic term gets an odd-multiple table sized
/// from its scalar's bit length (width 3, two entries, up to 96 bits — the
/// RLC's 64-bit randomizers; width 4 up to 192; width 5, eight entries,
/// above), and the entries of ALL terms are normalised to affine with a
/// single shared Montgomery batch inversion. This is the only variable-base
/// kernel: single-signature verify (u1*G + u2*Q), implicit-certificate
/// verify ((u2*e)*P_U + u2*Q_CA, G added after by comb) and ECDH call it
/// with one to two terms, the batch verifier with one term per distinct base point, paying
/// the 256 doublings and the inversion once per batch. Zero scalars and
/// infinity points are skipped.
JacobianPoint multi_scalar_mult(const U256& g_scalar,
                                const std::vector<MultiScalarTerm>& terms);
/// Forces construction of the lazy fixed-base tables (e.g. so benches can
/// exclude the one-time build from measurements). Idempotent.
void init_fixed_base_tables();

/// True iff (x, y) satisfies the curve equation and both coords < p.
bool on_curve(const AffinePoint& p);

/// Base point as affine.
AffinePoint generator();

}  // namespace aseck::crypto::p256
