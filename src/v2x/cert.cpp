#include "v2x/cert.hpp"

#include "crypto/sha256.hpp"

namespace aseck::v2x {

std::string cert_id_hex(const CertId& id) {
  return util::to_hex(util::BytesView(id.data(), id.size()));
}

util::Bytes Certificate::tbs_bytes() const {
  util::Bytes out;
  out.insert(out.end(), subject.begin(), subject.end());
  out.push_back(0);
  out.insert(out.end(), issuer_id.begin(), issuer_id.end());
  util::append_be(out, valid_from.ns, 8);
  util::append_be(out, valid_until.ns, 8);
  for (Psid p : app_permissions) {
    util::append_be(out, static_cast<std::uint32_t>(p), 4);
  }
  out.push_back(is_ca ? 1 : 0);
  const util::Bytes key = verify_key.to_bytes();
  out.insert(out.end(), key.begin(), key.end());
  return out;
}

CertId Certificate::id() const {
  const crypto::Digest d = crypto::sha256(tbs_bytes());
  CertId out;
  std::copy(d.begin(), d.begin() + 8, out.begin());
  return out;
}

namespace {
/// One backend HSM per CA, with the signing key behind a handle. The DRBG
/// draw order matches the pre-service code (one generate per CA), so seeded
/// hierarchies keep their exact key material across the migration.
struct CaHsm {
  std::shared_ptr<crypto::CryptoService> svc;
  crypto::PartitionId part = 0;
  crypto::KeyHandle key;
};
CaHsm make_ca_hsm(crypto::Drbg& rng, const std::string& name) {
  CaHsm h;
  h.svc = std::make_shared<crypto::CryptoService>(name + "-hsm");
  h.part = h.svc->register_partition("ca");
  crypto::KeyPolicy policy;
  policy.usage = crypto::kUsageSign;  // the CA key never leaves the service
  h.key = h.svc->generate_ecdsa(h.part, rng, policy);
  return h;
}
}  // namespace

crypto::EcdsaSignature CertificateAuthority::sign_tbs(
    util::BytesView tbs) const {
  crypto::EcdsaSignature sig;
  hsm_->sign(part_, key_, tbs, &sig);
  return sig;
}

CertificateAuthority CertificateAuthority::make_root(crypto::Drbg& rng,
                                                     std::string name,
                                                     SimTime valid_until) {
  CaHsm h = make_ca_hsm(rng, name);
  Certificate cert;
  cert.subject = std::move(name);
  cert.issuer_id = {};  // self-signed
  cert.valid_from = SimTime::zero();
  cert.valid_until = valid_until;
  cert.app_permissions = {Psid::kBsm, Psid::kIntersection, Psid::kRoadsideAlert,
                          Psid::kMisbehaviorReport, Psid::kOtaDistribution};
  cert.is_ca = true;
  h.svc->export_public(h.key, &cert.verify_key);
  CertificateAuthority ca(std::move(h.svc), h.part, h.key, std::move(cert));
  ca.cert_.signature = ca.sign_tbs(ca.cert_.tbs_bytes());
  return ca;
}

CertificateAuthority CertificateAuthority::make_sub(
    crypto::Drbg& rng, std::string name, const CertificateAuthority& parent,
    SimTime valid_until) {
  CaHsm h = make_ca_hsm(rng, name);
  crypto::EcdsaPublicKey pub;
  h.svc->export_public(h.key, &pub);
  Certificate cert = parent.issue(name, pub,
                                  parent.certificate().app_permissions,
                                  SimTime::zero(), valid_until, /*is_ca=*/true);
  return CertificateAuthority(std::move(h.svc), h.part, h.key, std::move(cert));
}

Certificate CertificateAuthority::issue(const std::string& subject,
                                        const crypto::EcdsaPublicKey& key,
                                        std::set<Psid> psids, SimTime from,
                                        SimTime until, bool is_ca) const {
  Certificate cert;
  cert.subject = subject;
  cert.issuer_id = cert_.id();
  cert.valid_from = from;
  cert.valid_until = until;
  cert.app_permissions = std::move(psids);
  cert.is_ca = is_ca;
  cert.verify_key = key;
  cert.signature = sign_tbs(cert.tbs_bytes());
  return cert;
}

CertificateAuthority::PseudonymBatch CertificateAuthority::issue_pseudonyms(
    crypto::Drbg& rng, std::size_t n, SimTime from, SimTime lifetime) const {
  PseudonymBatch batch;
  batch.certs.reserve(n);
  batch.keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto key = crypto::EcdsaPrivateKey::generate(rng);
    const SimTime start = from + lifetime * i;
    // Pseudonyms carry no linkable subject; diagnostic name is the index.
    batch.certs.push_back(issue("pseudo", key.public_key(), {Psid::kBsm}, start,
                                start + lifetime, false));
    batch.keys.push_back(std::move(key));
  }
  return batch;
}

const Certificate* TrustStore::find_issuer(const CertId& id) const {
  for (const auto& c : roots_) {
    if (c.id() == id) return &c;
  }
  for (const auto& c : intermediates_) {
    if (c.id() == id) return &c;
  }
  return nullptr;
}

TrustStore::Result TrustStore::validate(const Certificate& cert, SimTime t,
                                        Psid psid) const {
  if (!cert.valid_at(t)) return Result::kExpired;
  if (!cert.permits(psid)) return Result::kPermissionDenied;
  if (crl_ && crl_->is_revoked(cert.id())) return Result::kRevoked;

  // Walk the chain up to a trusted root (bounded depth). Time/revocation
  // checks always run; the expensive signature verifications are cached per
  // certificate id.
  const Certificate* current = &cert;
  for (int depth = 0; depth < 4; ++depth) {
    // Self-signed: must literally be one of our roots.
    const bool self_signed = current->issuer_id == CertId{};
    if (self_signed) {
      for (const auto& r : roots_) {
        if (r.id() == current->id()) return Result::kOk;
      }
      return Result::kUnknownIssuer;
    }
    const Certificate* issuer = find_issuer(current->issuer_id);
    if (!issuer) return Result::kUnknownIssuer;
    if (!issuer->is_ca) return Result::kNotCa;
    if (!issuer->valid_at(t)) return Result::kExpired;
    if (crl_ && crl_->is_revoked(issuer->id())) return Result::kRevoked;
    const CertId cid = current->id();
    Result sig_result;
    if (const Result* cached = chain_cache_.find(cid)) {
      sig_result = *cached;
    } else {
      const bool ok = crypto::ecdsa_verify(
          issuer->verify_key, current->tbs_bytes(), current->signature);
      sig_result = ok ? Result::kOk : Result::kBadSignature;
      chain_cache_.put(cid, sig_result);
    }
    if (sig_result != Result::kOk) return sig_result;
    // Issuer found in the store; if it is a root we are done.
    for (const auto& r : roots_) {
      if (r.id() == issuer->id()) return Result::kOk;
    }
    current = issuer;
  }
  return Result::kUnknownIssuer;
}

const char* TrustStore::result_name(Result r) {
  switch (r) {
    case Result::kOk: return "ok";
    case Result::kExpired: return "expired";
    case Result::kRevoked: return "revoked";
    case Result::kBadSignature: return "bad_signature";
    case Result::kUnknownIssuer: return "unknown_issuer";
    case Result::kPermissionDenied: return "permission_denied";
    case Result::kNotCa: return "not_ca";
  }
  return "?";
}

}  // namespace aseck::v2x
