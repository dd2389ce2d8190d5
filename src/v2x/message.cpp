#include "v2x/message.hpp"

#include <cmath>
#include <cstring>

#include "util/coverage.hpp"

namespace aseck::v2x {

double Position::distance_to(const Position& o) const {
  const double dx = x - o.x, dy = y - o.y;
  return std::sqrt(dx * dx + dy * dy);
}

namespace {
void append_double(util::Bytes& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  util::append_be(out, bits, 8);
}
double read_double(const std::uint8_t* p) {
  const std::uint64_t bits = util::load_be64(p);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}
}  // namespace

util::Bytes Bsm::serialize() const {
  util::Bytes out;
  util::append_be(out, temp_id, 4);
  append_double(out, pos.x);
  append_double(out, pos.y);
  append_double(out, speed_mps);
  append_double(out, heading_rad);
  util::append_be(out, generated.ns, 8);
  return out;
}

std::optional<Bsm> Bsm::parse(util::BytesView b) {
  if (b.size() != 4 + 8 * 5) {
    ASECK_COV("bsm.parse.bad_length");
    return std::nullopt;
  }
  ASECK_COV("bsm.parse.ok");
  Bsm m;
  m.temp_id = util::load_be32(b.data());
  m.pos.x = read_double(b.data() + 4);
  m.pos.y = read_double(b.data() + 12);
  m.speed_mps = read_double(b.data() + 20);
  m.heading_rad = read_double(b.data() + 28);
  m.generated = SimTime::from_ns(util::load_be64(b.data() + 36));
  return m;
}

util::Bytes Spdu::signed_portion() const {
  util::Bytes out;
  util::append_be(out, static_cast<std::uint32_t>(psid), 4);
  util::append_be(out, generation_time.ns, 8);
  out.insert(out.end(), payload.begin(), payload.end());
  const CertId cid = signer.id();
  out.insert(out.end(), cid.begin(), cid.end());
  return out;
}

Spdu Spdu::sign(Psid psid, SimTime at, util::Bytes payload,
                const Certificate& signer_cert,
                const crypto::EcdsaPrivateKey& key) {
  Spdu msg;
  msg.psid = psid;
  msg.generation_time = at;
  msg.payload = std::move(payload);
  msg.signer = signer_cert;
  msg.signature = key.sign(msg.signed_portion());
  return msg;
}

const char* verify_status_name(VerifyStatus s) {
  switch (s) {
    case VerifyStatus::kOk: return "ok";
    case VerifyStatus::kStale: return "stale";
    case VerifyStatus::kCertInvalid: return "cert_invalid";
    case VerifyStatus::kBadSignature: return "bad_signature";
    case VerifyStatus::kIrrelevant: return "irrelevant";
  }
  return "?";
}

VerifyStatus verify_spdu(const Spdu& msg, const TrustStore& trust, SimTime now,
                         const VerifyPolicy& policy,
                         crypto::VerifyEngine& engine,
                         const Position* receiver_pos,
                         const Position* claimed_pos) {
  // Freshness: reject stale or future-dated messages.
  if (msg.generation_time > now + policy.max_age ||
      now > msg.generation_time + policy.max_age) {
    return VerifyStatus::kStale;
  }
  if (trust.validate(msg.signer, now, msg.psid) != TrustStore::Result::kOk) {
    return VerifyStatus::kCertInvalid;
  }
  if (!engine.verify(msg.signer.verify_key, msg.signed_portion(),
                     msg.signature)) {
    return VerifyStatus::kBadSignature;
  }
  if (receiver_pos && claimed_pos &&
      receiver_pos->distance_to(*claimed_pos) > policy.max_relevance_m) {
    return VerifyStatus::kIrrelevant;
  }
  return VerifyStatus::kOk;
}

VerifyStatus verify_spdu_presig(const Spdu& msg, const TrustStore& trust,
                                SimTime now, const VerifyPolicy& policy,
                                const Position* receiver_pos,
                                const Position* claimed_pos) {
  if (msg.generation_time > now + policy.max_age ||
      now > msg.generation_time + policy.max_age) {
    return VerifyStatus::kStale;
  }
  if (trust.validate(msg.signer, now, msg.psid) != TrustStore::Result::kOk) {
    return VerifyStatus::kCertInvalid;
  }
  if (receiver_pos && claimed_pos &&
      receiver_pos->distance_to(*claimed_pos) > policy.max_relevance_m) {
    return VerifyStatus::kIrrelevant;
  }
  return VerifyStatus::kOk;
}

}  // namespace aseck::v2x
