#pragma once
// True batch ECDSA-P256 verification (ROADMAP O2).
//
// With w_i = s_i^-1 mod n, u1_i = z_i * w_i and u2_i = r_i * w_i, a valid
// signature's nonce point R_i satisfies the standard verification equation
//
//     R_i  ==  u1_i * G  +  u2_i * Q_i
//
// (the s-form s_i * R_i = z_i * G + r_i * Q_i multiplied by s_i^-1, which
// exists because 0 < s_i < n). A batch of N signatures is checked with ONE
// random-linear-combination (RLC) evaluation:
//
//     (sum_i a_i * u1_i) * G  +  sum_i (a_i * u2_i) * Q_i
//                             +  sum_i a_i * (-R_i)  ==  O
//
// with per-item 64-bit coefficients a_i, so every -R_i term carries only a
// 64-bit scalar (and gets a two-entry wNAF table). All 2N+1 scalar terms share one 256-step doubling chain
// (p256::multi_scalar_mult) and one Montgomery batch inversion for the
// precomputed tables; the s_i are inverted together with one shared
// p256::ninv (Montgomery's trick, about 3 nmul per item), and u1_i/u2_i are
// computed once per call, so bisection reuses them. That amortization is the
// whole speedup. A failing check bisects: each half is re-checked
// recursively, and singleton leaves fall back to the standard per-item
// verifier (ecdsa_verify_item), so per-item verdicts always match the
// sequential verifier bit-for-bit.
//
// Implicit-certificate items (ECQV, crypto/ecqv.hpp) carry the
// certificate's reconstruction point P_U, its hash scalar e and the CA key
// instead of Q_i. Their key is Q_i = e_i * P_U,i + Q_CA, so the item's key
// term becomes two:
//
//     (a_i * u2_i * e_i) * P_U,i  +  (a_i * u2_i) * Q_CA
//
// Before the MSM, rlc_check merges terms whose base points are equal
// (compared by value) by adding their scalars mod n: every item certified
// by one CA shares ONE (sum_i a_i * u2_i) * Q_CA term, so a flush of N
// beacons pays N decompressions of P_U plus one MSM term instead of N key
// reconstructions, and a signer that repeats within a batch pays one Q term.
// Singleton and fallback leaves verify implicit items per item
// (ecqv::verify_digest): u2*Q_i as (u2*e)*P_U + u2*Q_CA on one MSM, which
// is O exactly when Q_i = O and then rejects, then u1*G by comb.
// Callers must derive e from the certificate bytes (ecqv::cert_scalar);
// e outside [1, n) is rejected up front. An RLC check cannot see Q_i = O
// (the item's key terms cancel), but with e a hash of the certificate that
// needs e * P_U = -Q_CA for a hash output, which nobody can arrange.
//
// R_i is recovered from (r_i, r_parity hint) by curve-point decompression;
// signatures without a usable hint (wire round trips strip it) are verified
// per-item — a perf cost, never a correctness one. A tampered hint
// decompresses to the wrong point, fails the RLC, and the leaf fallback
// still returns the true verdict.
//
// Determinism: the a_i are derived from a SHA-256 transcript of the batch
// contents plus a caller salt (for implicit items the certificate bytes, e
// and Q_CA too), so identical batches give identical work — the repo-wide
// bit-reproducibility contract. The flip side is that an
// adversary who can predict the transcript could in principle craft
// cancelling invalid pairs; callers holding long-lived engines can fold
// run-unique entropy into `salt` when that matters (the simulations prefer
// reproducibility).

#include <cstdint>
#include <vector>

#include "crypto/ecdsa.hpp"

namespace aseck::crypto {

/// One signature to check. Explicit form: `pub` is the signer's key (the
/// first three members, so `{&pub, digest, &sig}` still builds one).
/// Implicit form: `ca` is set, `pub` points at the certificate's
/// reconstruction point P_U, `e` = ecqv::cert_scalar(cert), and the
/// signer's key is e * P_U + *ca; `cert` (the encoded certificate) enters
/// the batch transcript. `ca_table`, optional, holds precomputed multiples
/// of the CA key for its MSM term (an acceleration only).
struct BatchVerifyItem {
  const EcdsaPublicKey* pub = nullptr;
  Digest digest{};
  const EcdsaSignature* sig = nullptr;
  const EcdsaPublicKey* ca = nullptr;
  U256 e{};
  util::BytesView cert{};
  const p256::OddMultiples* ca_table = nullptr;

  bool implicit() const { return ca != nullptr; }
};

/// The per-item verdict the batch kernel reproduces: ecdsa_verify_digest
/// for the explicit form, ecqv::verify_digest for the implicit one; false
/// for a null pub or sig.
bool ecdsa_verify_item(const BatchVerifyItem& item);

/// Work accounting for benches/metrics (not part of the verdict).
struct BatchVerifyStats {
  std::uint64_t items = 0;          // total items seen
  std::uint64_t rlc_checks = 0;     // random-linear-combination evaluations
  std::uint64_t rlc_items = 0;      // items covered by those evaluations
  std::uint64_t bisections = 0;     // failed checks split in half
  std::uint64_t single_checks = 0;  // per-item fallback verifications
};

/// Verifies every item, returning per-item verdicts in order. Bit-identical
/// to calling ecdsa_verify_item per item (differentially tested against
/// ecdsa_verify_digest_slow on explicit and reconstructed keys). Null
/// pub/sig verdicts are false.
std::vector<bool> ecdsa_verify_batch(const std::vector<BatchVerifyItem>& items,
                                     util::BytesView salt = {},
                                     BatchVerifyStats* stats = nullptr);

}  // namespace aseck::crypto
