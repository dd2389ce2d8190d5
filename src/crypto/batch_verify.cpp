#include "crypto/batch_verify.hpp"

#include <algorithm>
#include <array>

#include "crypto/ecqv.hpp"
#include "crypto/sha256.hpp"

namespace aseck::crypto {

bool ecdsa_verify_item(const BatchVerifyItem& it) {
  if (!it.pub || !it.sig) return false;
  if (it.implicit()) {
    return ecqv::verify_digest(it.pub->point, it.e, *it.ca, it.digest, *it.sig,
                               it.ca_table);
  }
  return ecdsa_verify_digest(*it.pub, it.digest, *it.sig);
}

namespace {

/// One batch-eligible signature with its precomputed scalars and the
/// decompressed (negated) nonce point.
struct Prepared {
  const BatchVerifyItem* item;  // kept for the singleton-leaf fallback
  std::size_t index;         // slot in the caller's item/verdict vectors
  U256 u1;                   // z * s^-1 mod n
  U256 u2;                   // r * s^-1 mod n
  U256 a;                    // RLC randomizer (64-bit, nonzero)
  p256::AffinePoint neg_r;   // -R_i
};

/// a_i = H(transcript || i), truncated to 64 bits and forced nonzero. The
/// transcript commits to the whole batch (and the caller salt), so the
/// coefficients are fixed before any of them is used.
U256 randomizer(const Digest& transcript, std::uint64_t i) {
  Sha256 h;
  h.update(util::BytesView(transcript.data(), transcript.size()));
  std::array<std::uint8_t, 8> idx;
  util::store_be64(idx.data(), i);
  h.update(util::BytesView(idx.data(), idx.size()));
  const Digest d = h.finalize();
  std::uint64_t a = util::load_be64(d.data());
  if (a == 0) a = 1;
  return U256::from_u64(a);
}

/// Folds terms with equal base points into one (scalars added mod n), so
/// the MSM pays one table and one wNAF chain per distinct point.
void merge_equal_bases(std::vector<p256::MultiScalarTerm>& terms) {
  const auto less = [](const p256::MultiScalarTerm& a,
                       const p256::MultiScalarTerm& b) {
    const int c = cmp(a.point.x, b.point.x);
    return c != 0 ? c < 0 : cmp(a.point.y, b.point.y) < 0;
  };
  std::sort(terms.begin(), terms.end(), less);
  std::size_t w = 0;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (w > 0 && terms[w - 1].point == terms[i].point) {
      terms[w - 1].scalar =
          add_mod(terms[w - 1].scalar, terms[i].scalar, p256::N());
      if (!terms[w - 1].table) terms[w - 1].table = terms[i].table;
    } else {
      terms[w++] = terms[i];
    }
  }
  terms.resize(w);
}

/// Evaluates the combined RLC equation over `group`; true iff it sums to O.
bool rlc_check(const Prepared* group, std::size_t m, BatchVerifyStats& stats) {
  const U256& n = p256::N();
  U256 g_coeff{};  // sum a_i * u1_i mod n
  std::vector<p256::MultiScalarTerm> terms;
  terms.reserve(3 * m);
  for (std::size_t i = 0; i < m; ++i) {
    const Prepared& p = group[i];
    const BatchVerifyItem& it = *p.item;
    g_coeff = add_mod(g_coeff, p256::nmul(p.a, p.u1), n);
    const U256 au2 = p256::nmul(p.a, p.u2);
    if (it.implicit()) {
      // a*u2*Q = (a*u2*e)*P_U + (a*u2)*Q_CA; the CA terms merge below.
      terms.push_back({p256::nmul(au2, it.e), it.pub->point});
      terms.push_back({au2, it.ca->point, it.ca_table});
    } else {
      terms.push_back({au2, it.pub->point});
    }
    terms.push_back({p.a, p.neg_r});  // 64-bit scalar
  }
  merge_equal_bases(terms);
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
    out[group[0].index] = ecdsa_verify_item(*group[0].item);
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
    it.sig->hash_into(th);
    th.update(util::BytesView(it.digest.data(), it.digest.size()));
    it.pub->hash_into(th);
    if (it.implicit()) {
      th.update(it.cert);
      th.update(it.e.to_array());
      it.ca->hash_into(th);
      if (it.e.is_zero() || cmp(it.e, n) >= 0 || !it.ca->valid()) continue;
    }
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
    p.item = &it;
    p.index = i;
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
    acc = p256::nmul(acc, prepared[k].item->sig->s);
  }
  U256 inv = p256::ninv(acc);
  for (std::size_t k = prepared.size(); k-- > 0;) {
    Prepared& p = prepared[k];
    const EcdsaSignature& sig = *p.item->sig;
    const U256 w = p256::nmul(inv, prefix[k]);
    inv = p256::nmul(inv, sig.s);
    p.u1 = p256::nmul(detail::digest_to_scalar(p.item->digest), w);
    p.u2 = p256::nmul(sig.r, w);
  }

  const Digest transcript = th.finalize();
  for (std::size_t k = 0; k < prepared.size(); ++k) {
    prepared[k].a = randomizer(transcript, k);
  }

  resolve(prepared.data(), prepared.size(), out, st);
  for (const std::size_t i : fallback) {
    ++st.single_checks;
    out[i] = ecdsa_verify_item(items[i]);
  }
  return out;
}

}  // namespace aseck::crypto
