#pragma once
// V2X signed messages (1609.2 SPDU-style) and the Basic Safety Message.

#include <optional>

#include "crypto/verify_engine.hpp"
#include "v2x/cert.hpp"

namespace aseck::v2x {

/// 2D position in meters (local ENU frame; adequate for intersection-scale
/// scenarios).
struct Position {
  double x = 0, y = 0;
  double distance_to(const Position& o) const;
};

/// SAE J2735-style Basic Safety Message (core fields).
struct Bsm {
  std::uint32_t temp_id = 0;   // pseudonym-scoped temporary id
  Position pos;
  double speed_mps = 0;
  double heading_rad = 0;
  SimTime generated = SimTime::zero();

  util::Bytes serialize() const;
  static std::optional<Bsm> parse(util::BytesView b);
};

/// Signed Protocol Data Unit: payload + PSID + time + signer cert + ECDSA
/// signature over (psid || generation_time || payload || cert_id).
struct Spdu {
  Psid psid = Psid::kBsm;
  SimTime generation_time = SimTime::zero();
  util::Bytes payload;
  Certificate signer;             // certificate included (1609.2 "certificate"
                                  // signer-identifier option)
  crypto::EcdsaSignature signature;

  util::Bytes signed_portion() const;

  static Spdu sign(Psid psid, SimTime at, util::Bytes payload,
                   const Certificate& signer_cert,
                   const crypto::EcdsaPrivateKey& key);
};

/// Verification policy knobs.
struct VerifyPolicy {
  SimTime max_age = SimTime::from_ms(500);     // freshness window
  double max_relevance_m = 1000.0;             // geo relevance radius
};

enum class VerifyStatus {
  kOk,
  kStale,
  kCertInvalid,
  kBadSignature,
  kIrrelevant,
};
const char* verify_status_name(VerifyStatus s);

/// Full receive-side verification: cert chain, signature, freshness,
/// relevance (when both positions supplied). The payload signature check
/// runs through `engine` (verify-result cache + shared crypto.verify.*
/// metrics); the chain check runs in the TrustStore.
VerifyStatus verify_spdu(const Spdu& msg, const TrustStore& trust, SimTime now,
                         const VerifyPolicy& policy,
                         crypto::VerifyEngine& engine,
                         const Position* receiver_pos = nullptr,
                         const Position* claimed_pos = nullptr);

/// The cheap synchronous subset of verify_spdu — freshness, cert chain,
/// relevance — with the payload signature check left out. Opportunistic
/// admission runs this before provisionally accepting a message and defers
/// only the signature to the batch pipeline. Note the status difference vs
/// the full check: a message failing BOTH signature and relevance reports
/// kIrrelevant here (rejected before the deferred signature ever runs).
VerifyStatus verify_spdu_presig(const Spdu& msg, const TrustStore& trust,
                                SimTime now, const VerifyPolicy& policy,
                                const Position* receiver_pos = nullptr,
                                const Position* claimed_pos = nullptr);

}  // namespace aseck::v2x
