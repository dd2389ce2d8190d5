#pragma once
// ECDSA over P-256 with SHA-256 (the signature suite of IEEE 1609.2 and the
// asymmetric option in Uptane), plus ECDH key agreement. Nonces are derived
// deterministically from (key, digest) in the spirit of RFC 6979 so that a
// given (key, message) pair always produces the same signature — this keeps
// simulations reproducible and eliminates nonce-reuse bugs by construction.

#include <optional>

#include "crypto/drbg.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace aseck::crypto {

struct EcdsaSignature {
  U256 r, s;

  /// y-parity of the signer's nonce point R, when known — the IEEE 1609.2
  /// compressed-y signer hint. Signers set it only when R.x < n (so r
  /// identifies R.x unambiguously); it is absent after a bare r||s wire
  /// round trip. Purely an acceleration hint: batch verification uses it to
  /// decompress R without a per-item fallback, and a wrong or missing hint
  /// costs performance, never correctness. Equality ignores it.
  static constexpr std::uint8_t kNoRParity = 0xff;
  std::uint8_t r_parity = kNoRParity;
  bool has_r_parity() const { return r_parity <= 1; }

  /// 64-byte r||s serialization (the parity hint is not serialized).
  util::Bytes to_bytes() const;
  /// Feeds to_bytes()'s bytes into `h` without a heap allocation.
  void hash_into(Sha256& h) const;
  static std::optional<EcdsaSignature> from_bytes(util::BytesView b);
  friend bool operator==(const EcdsaSignature& a, const EcdsaSignature& b) {
    return a.r == b.r && a.s == b.s;
  }
};

struct EcdsaPublicKey {
  p256::AffinePoint point;

  /// Uncompressed SEC1 encoding: 0x04 || X || Y (65 bytes).
  util::Bytes to_bytes() const;
  /// Feeds to_bytes()'s bytes into `h` without a heap allocation.
  void hash_into(Sha256& h) const;
  static std::optional<EcdsaPublicKey> from_bytes(util::BytesView b);
  bool valid() const { return p256::on_curve(point); }
  friend bool operator==(const EcdsaPublicKey&, const EcdsaPublicKey&) = default;
};

class EcdsaPrivateKey {
 public:
  /// Generates a key from the DRBG.
  static EcdsaPrivateKey generate(Drbg& rng);
  /// Deterministic key from a 32-byte secret (reduced mod n; must be nonzero).
  static EcdsaPrivateKey from_secret(util::BytesView secret32);

  const U256& scalar() const { return d_; }
  const EcdsaPublicKey& public_key() const { return pub_; }

  /// Signs a message (hashes with SHA-256 internally).
  EcdsaSignature sign(util::BytesView msg) const;
  /// Signs a precomputed digest.
  EcdsaSignature sign_digest(const Digest& digest) const;

 private:
  EcdsaPrivateKey(U256 d);
  U256 d_;
  EcdsaPublicKey pub_;
};

/// Signs a precomputed digest with the bare private scalar d (1 <= d < n):
/// the one signing routine. EcdsaPrivateKey::sign_digest calls it, and
/// holders of a reconstructed implicit-certificate key (crypto/ecqv.hpp)
/// sign with it without deriving their public key.
EcdsaSignature ecdsa_sign_digest(const U256& d, const Digest& digest);

/// Verifies signature over a message (SHA-256 internally).
bool ecdsa_verify(const EcdsaPublicKey& pub, util::BytesView msg,
                  const EcdsaSignature& sig);
bool ecdsa_verify_digest(const EcdsaPublicKey& pub, const Digest& digest,
                         const EcdsaSignature& sig);
/// Reference verification on the 1-bit Shamir double-scalar path. Must agree
/// bit-for-bit with ecdsa_verify_digest; kept for equivalence tests and the
/// E17 slow-vs-fast throughput sweep.
bool ecdsa_verify_digest_slow(const EcdsaPublicKey& pub, const Digest& digest,
                              const EcdsaSignature& sig);

namespace detail {
/// The counter-th deterministic nonce candidate for (d, digest), reduced mod
/// n. Exposed so tests can prove the candidate stream never repeats (the
/// former std::uint8_t retry counter wrapped at 256, silently re-offering
/// the same candidates).
U256 nonce_candidate(const U256& d, const Digest& digest,
                     std::uint32_t counter);
/// Digest -> integer mod n (leftmost-bits rule). Shared with the batch
/// verifier so both paths reduce the message hash identically.
U256 digest_to_scalar(const Digest& d);
}  // namespace detail

/// ECDH: shared secret = x-coordinate of d * Q, expanded through HKDF with
/// the given info label. Returns nullopt for invalid peer keys.
std::optional<util::Bytes> ecdh_shared(const EcdsaPrivateKey& mine,
                                       const EcdsaPublicKey& peer,
                                       util::BytesView info, std::size_t len);

}  // namespace aseck::crypto
