#pragma once
// ECQV implicit certificates (SEC 4, "Elliptic Curve Qu-Vanstone Implicit
// Certificate Scheme") on P-256 — the format of SCMS/IEEE 1609.2 pseudonym
// certificates.
//
// An implicit certificate carries no public key and no CA signature. It
// carries a *reconstruction point* P_U, and anyone holding the CA's public
// key Q_CA derives the subject's key from the certificate bytes alone:
//
//     e   = SHA-256(cert) mod n          (e == 0: the certificate is invalid)
//     Q_U = e * P_U + Q_CA
//
// The CA issues with a scalar k (here the requester's and the CA's
// ephemeral scalars folded into one): P_U = k * G, and the subject's private
// key is d_U = e * k + d_CA mod n, so Q_U = d_U * G. A signature under d_U
// verifies against Q_U; a forged certificate yields a key nobody holds.
//
// Receivers never need Q_U explicitly: a signature check u1*G + u2*Q_U
// becomes u1*G + (u2*e)*P_U + u2*Q_CA, and in a batch every item certified
// by the same CA shares one merged Q_CA term (crypto/batch_verify.hpp).
//
// Encoding (fixed length, strict; parse(encode(c)) == c and every accepted
// input re-encodes to itself):
//
//     [0]      version, 0x01
//     [1, 9)   issuer: HashedId8 of the CA key (issuer_id)
//     [9, 17)  subject: pseudonym subject id, big-endian
//     [17]     0x02 / 0x03: y-parity of P_U (SEC 1 compressed point)
//     [18, 50) x-coordinate of P_U, big-endian, < p, on the curve

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/ecdsa.hpp"

namespace aseck::crypto::ecqv {

using IssuerId = std::array<std::uint8_t, 8>;

struct ImplicitCert {
  static constexpr std::uint8_t kVersion = 0x01;
  static constexpr std::size_t kSize = 50;
  using Encoding = std::array<std::uint8_t, kSize>;

  IssuerId issuer{};
  std::uint64_t subject = 0;
  /// P_U; finite and on the curve in every parsed certificate.
  p256::AffinePoint reconstruction;

  Encoding encode() const;
  /// Strict decoder: exact length, version, point prefix 0x02/0x03, x < p,
  /// x the abscissa of a curve point (decompressed here). nullopt otherwise.
  static std::optional<ImplicitCert> parse(util::BytesView b);
};

/// HashedId8 of a CA key: the low-order 8 bytes of SHA-256 over its SEC 1
/// encoding (IEEE 1609.2's certificate-digest construction).
IssuerId issuer_id(const EcdsaPublicKey& ca);

/// e = SHA-256(cert) mod n; nullopt when e == 0, which invalidates the
/// certificate.
std::optional<U256> cert_scalar(util::BytesView cert);

struct Issued {
  ImplicitCert::Encoding cert;
  U256 d;  // d_U = e * k + d_CA mod n: the subject's private key
};

/// CA-side issuance with scalar k in [1, n): P_U = k * G (one comb), then
/// d_U = e * k + d_CA mod n. nullopt when e == 0 or d_U == 0 (the caller
/// issues again with another k). Throws std::invalid_argument for k out of
/// range.
std::optional<Issued> issue(const U256& d_ca, const IssuerId& issuer,
                            std::uint64_t subject, const U256& k);

/// Reference reconstruction Q_U = e * P_U + Q_CA from the certificate bytes
/// and the CA key alone, one point at a time. nullopt for a certificate
/// that does not parse, e == 0, an invalid CA key, or Q_U = O.
std::optional<EcdsaPublicKey> reconstruct(util::BytesView cert,
                                          const EcdsaPublicKey& ca);

/// Per-item verification of a signature under the implicit key
/// Q_U = e * P_U + Q_CA without forming Q_U: u2*Q_U as (u2*e)*P_U + u2*Q_CA
/// on one MSM (it is O exactly when Q_U is), then u1*G added by comb. False
/// for r or s outside [1, n), e outside [1, n), P_U or Q_CA off the curve,
/// and Q_U = O. `e` must be cert_scalar of the certificate that carries
/// P_U. `ca_table`, optional, holds precomputed multiples of the CA key.
bool verify_digest(const p256::AffinePoint& reconstruction, const U256& e,
                   const EcdsaPublicKey& ca, const Digest& digest,
                   const EcdsaSignature& sig,
                   const p256::OddMultiples* ca_table = nullptr);

}  // namespace aseck::crypto::ecqv
