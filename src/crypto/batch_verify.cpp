#include "crypto/batch_verify.hpp"

#include "crypto/sha256.hpp"

namespace aseck::crypto {

namespace {

/// One batch-eligible signature with its precomputed scalars and the
/// decompressed (negated) nonce point.
struct Prepared {
  std::size_t index;         // slot in the caller's item/verdict vectors
  U256 u1;                   // z * s^-1 mod n
  U256 u2;                   // r * s^-1 mod n
  U256 a;                    // RLC randomizer (64-bit, nonzero)
  Digest digest;             // kept for the singleton-leaf fallback
  const EcdsaPublicKey* pub;
  const EcdsaSignature* sig;
  p256::AffinePoint neg_r;   // -R_i
};

/// a_i = H(transcript || i), truncated to 64 bits and forced nonzero. The
/// transcript commits to the whole batch (and the caller salt), so the
/// coefficients are fixed before any of them is used.
U256 randomizer(const Digest& transcript, std::uint64_t i) {
  Sha256 h;
  h.update(util::BytesView(transcript.data(), transcript.size()));
  util::Bytes idx;
  util::append_be(idx, i, 8);
  h.update(idx);
  const Digest d = h.finalize();
  std::uint64_t a = util::load_be64(d.data());
  if (a == 0) a = 1;
  return U256::from_u64(a);
}

/// Evaluates the combined RLC equation over `group`; true iff it sums to O.
bool rlc_check(const Prepared* group, std::size_t m, BatchVerifyStats& stats) {
  const U256& n = p256::N();
  U256 g_coeff{};  // sum a_i * u1_i mod n
  std::vector<p256::MultiScalarTerm> terms;
  terms.reserve(2 * m);
  for (std::size_t i = 0; i < m; ++i) {
    const Prepared& p = group[i];
    g_coeff = add_mod(g_coeff, p256::nmul(p.a, p.u1), n);
    terms.push_back({p256::nmul(p.a, p.u2), p.pub->point});
    terms.push_back({p.a, p.neg_r});  // 64-bit scalar
  }
  ++stats.rlc_checks;
  stats.rlc_items += m;
  return p256::multi_scalar_mult(g_coeff, terms).is_infinity();
}

/// Bisection: a passing RLC accepts the whole group; a failing one splits.
/// Singleton leaves use the standard verifier — a single-item RLC failure is
/// not conclusive (the hint, not the signature, may be what is wrong).
void resolve(const Prepared* group, std::size_t m, std::vector<bool>& out,
             BatchVerifyStats& stats) {
  if (m == 0) return;
  if (m == 1) {
    ++stats.single_checks;
    out[group[0].index] =
        ecdsa_verify_digest(*group[0].pub, group[0].digest, *group[0].sig);
    return;
  }
  if (rlc_check(group, m, stats)) {
    for (std::size_t i = 0; i < m; ++i) out[group[i].index] = true;
    return;
  }
  ++stats.bisections;
  resolve(group, m / 2, out, stats);
  resolve(group + m / 2, m - m / 2, out, stats);
}

}  // namespace

std::vector<bool> ecdsa_verify_batch(const std::vector<BatchVerifyItem>& items,
                                     util::BytesView salt,
                                     BatchVerifyStats* stats) {
  BatchVerifyStats local;
  BatchVerifyStats& st = stats ? *stats : local;
  st.items += items.size();

  std::vector<bool> out(items.size(), false);
  const U256& n = p256::N();

  // Pre-pass: range/curve checks (the same rejects the per-item verifier
  // applies first), hint-based R recovery, and the batch transcript.
  std::vector<Prepared> prepared;
  std::vector<std::size_t> fallback;  // no usable hint: verify per-item
  prepared.reserve(items.size());
  Sha256 th;
  th.update(salt);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchVerifyItem& it = items[i];
    if (!it.pub || !it.sig) continue;  // verdict stays false
    th.update(it.sig->to_bytes());
    th.update(util::BytesView(it.digest.data(), it.digest.size()));
    th.update(it.pub->to_bytes());
    if (it.sig->r.is_zero() || it.sig->s.is_zero()) continue;
    if (cmp(it.sig->r, n) >= 0 || cmp(it.sig->s, n) >= 0) continue;
    if (!it.pub->valid()) continue;
    if (!it.sig->has_r_parity()) {
      fallback.push_back(i);
      continue;
    }
    // Hint contract: parity present => R.x == r (signers only hint when
    // R.x < n). Decompression failure means the hint is wrong — r could
    // still name x = r + n — so fall back rather than reject.
    const auto R = p256::decompress(it.sig->r, it.sig->r_parity == 1);
    if (!R) {
      fallback.push_back(i);
      continue;
    }
    U256 neg_y;
    sub(neg_y, p256::P(), R->y);  // no borrow: 0 < y < p
    Prepared p;
    p.index = i;
    p.digest = it.digest;
    p.pub = it.pub;
    p.sig = it.sig;
    p.neg_r = p256::AffinePoint{R->x, neg_y, false};
    prepared.push_back(p);
  }

  // One shared inversion for every s_i (Montgomery's trick: prefix
  // products, one ninv, walk back), then u1 = z * w and u2 = r * w.
  // 0 < s_i < n, so no zero enters the product chain.
  std::vector<U256> prefix(prepared.size());
  U256 acc = U256::one();
  for (std::size_t k = 0; k < prepared.size(); ++k) {
    prefix[k] = acc;
    acc = p256::nmul(acc, prepared[k].sig->s);
  }
  U256 inv = p256::ninv(acc);
  for (std::size_t k = prepared.size(); k-- > 0;) {
    Prepared& p = prepared[k];
    const U256 w = p256::nmul(inv, prefix[k]);
    inv = p256::nmul(inv, p.sig->s);
    p.u1 = p256::nmul(detail::digest_to_scalar(p.digest), w);
    p.u2 = p256::nmul(p.sig->r, w);
  }

  const Digest transcript = th.finalize();
  for (std::size_t k = 0; k < prepared.size(); ++k) {
    prepared[k].a = randomizer(transcript, k);
  }

  resolve(prepared.data(), prepared.size(), out, st);
  for (const std::size_t i : fallback) {
    ++st.single_checks;
    out[i] = ecdsa_verify_digest(*items[i].pub, items[i].digest,
                                 *items[i].sig);
  }
  return out;
}

}  // namespace aseck::crypto
