#include "crypto/ecqv.hpp"

#include <cstring>
#include <stdexcept>

#include "util/coverage.hpp"

namespace aseck::crypto::ecqv {

ImplicitCert::Encoding ImplicitCert::encode() const {
  Encoding out{};
  out[0] = kVersion;
  std::memcpy(out.data() + 1, issuer.data(), issuer.size());
  util::store_be64(out.data() + 9, subject);
  out[17] = reconstruction.y.is_odd() ? 0x03 : 0x02;
  const util::Bytes x = reconstruction.x.to_bytes();
  std::memcpy(out.data() + 18, x.data(), x.size());
  return out;
}

std::optional<ImplicitCert> ImplicitCert::parse(util::BytesView b) {
  if (b.size() != kSize) {
    ASECK_COV("ecqv.parse.bad_length");
    return std::nullopt;
  }
  if (b[0] != kVersion) {
    ASECK_COV("ecqv.parse.bad_version");
    return std::nullopt;
  }
  if (b[17] != 0x02 && b[17] != 0x03) {
    ASECK_COV("ecqv.parse.bad_prefix");
    return std::nullopt;
  }
  // decompress rejects x >= p and x off the curve.
  const auto p = p256::decompress(U256::from_bytes(b.subspan(18, 32)),
                                  b[17] == 0x03);
  if (!p) {
    ASECK_COV("ecqv.parse.bad_point");
    return std::nullopt;
  }
  ASECK_COV("ecqv.parse.ok");
  ImplicitCert c;
  std::memcpy(c.issuer.data(), b.data() + 1, c.issuer.size());
  c.subject = util::load_be64(b.data() + 9);
  c.reconstruction = *p;
  return c;
}

IssuerId issuer_id(const EcdsaPublicKey& ca) {
  const Digest h = sha256(ca.to_bytes());
  IssuerId id;
  std::memcpy(id.data(), h.data() + h.size() - id.size(), id.size());
  return id;
}

std::optional<U256> cert_scalar(util::BytesView cert) {
  const U256 e = detail::digest_to_scalar(sha256(cert));
  if (e.is_zero()) return std::nullopt;
  return e;
}

std::optional<Issued> issue(const U256& d_ca, const IssuerId& issuer,
                            std::uint64_t subject, const U256& k) {
  if (k.is_zero() || cmp(k, p256::N()) >= 0) {
    throw std::invalid_argument("ecqv::issue: k must be in [1, n)");
  }
  ImplicitCert c;
  c.issuer = issuer;
  c.subject = subject;
  c.reconstruction = p256::scalar_mult_base_affine(k);
  Issued out;
  out.cert = c.encode();
  const auto e = cert_scalar(out.cert);
  if (!e) return std::nullopt;
  out.d = add_mod(p256::nmul(*e, k), d_ca, p256::N());
  if (out.d.is_zero()) return std::nullopt;
  return out;
}

std::optional<EcdsaPublicKey> reconstruct(util::BytesView cert,
                                          const EcdsaPublicKey& ca) {
  const auto c = ImplicitCert::parse(cert);
  const auto e = cert_scalar(cert);
  if (!c || !e || !ca.valid()) return std::nullopt;
  const p256::JacobianPoint q = p256::multi_scalar_mult(
      U256{}, {{*e, c->reconstruction}, {U256::one(), ca.point}});
  if (q.is_infinity()) return std::nullopt;
  return EcdsaPublicKey{p256::to_affine(q)};
}

bool verify_digest(const p256::AffinePoint& reconstruction, const U256& e,
                   const EcdsaPublicKey& ca, const Digest& digest,
                   const EcdsaSignature& sig,
                   const p256::OddMultiples* ca_table) {
  const U256& n = p256::N();
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (cmp(sig.r, n) >= 0 || cmp(sig.s, n) >= 0) return false;
  if (e.is_zero() || cmp(e, n) >= 0) return false;
  if (!p256::on_curve(reconstruction) || !ca.valid()) return false;
  const U256 w = p256::ninv(sig.s);
  const U256 u1 = p256::nmul(detail::digest_to_scalar(digest), w);
  const U256 u2 = p256::nmul(sig.r, w);
  // u2*Q_U first: u2 != 0 and n is prime, so it is O exactly when Q_U = O,
  // a key anyone could sign for. The G term then goes on by comb.
  const p256::JacobianPoint y = p256::multi_scalar_mult(
      U256{},
      {{p256::nmul(u2, e), reconstruction}, {u2, ca.point, ca_table}});
  if (y.is_infinity()) return false;
  return p256::x_equals_mod_n(p256::add_scalar_mult_base(y, u1), sig.r);
}

}  // namespace aseck::crypto::ecqv
