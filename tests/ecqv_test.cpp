// ECQV implicit certificates (crypto/ecqv.hpp) and their fold into the batch
// verifier: the strict encoding, reconstruction against d_U * G on two
// independent scalar-multiplication paths, per-item and merged-term batch
// verdicts against the slow reference verifier on reconstructed keys, and
// the short-scalar wNAF tables those batches rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/batch_verify.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/ecqv.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_engine.hpp"

namespace aseck::crypto {
namespace {

U256 scalar_of(std::string_view tag, std::uint32_t i) {
  util::Bytes msg = util::from_string(tag);
  util::append_be(msg, i, 4);
  return p256::nreduce(U256::from_bytes(sha256(msg)));
}

Digest test_digest(std::uint32_t i) {
  util::Bytes msg{'e', 'c', 'q', 'v'};
  util::append_be(msg, i, 4);
  return sha256(msg);
}

struct Ca {
  U256 d;
  EcdsaPublicKey pub;
  ecqv::IssuerId id;
};

Ca make_ca(std::uint32_t i) {
  Ca ca;
  ca.d = scalar_of("ca", i);
  ca.pub.point = p256::to_affine(p256::scalar_mult_base(ca.d));
  ca.id = ecqv::issuer_id(ca.pub);
  return ca;
}

ecqv::Issued issue_ok(const Ca& ca, std::uint32_t i) {
  const auto issued = ecqv::issue(ca.d, ca.id, 1000 + i, scalar_of("k", i));
  EXPECT_TRUE(issued.has_value());
  return *issued;
}

// --- encoding ---------------------------------------------------------------

TEST(Ecqv, EncodingRoundTripsAndIsStrict) {
  const Ca ca = make_ca(1);
  const ecqv::Issued is = issue_ok(ca, 1);
  const auto c = ecqv::ImplicitCert::parse(is.cert);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->issuer, ca.id);
  EXPECT_EQ(c->subject, 1001u);
  EXPECT_EQ(c->encode(), is.cert);
  EXPECT_TRUE(p256::on_curve(c->reconstruction));

  const util::BytesView v(is.cert.data(), is.cert.size());
  EXPECT_FALSE(ecqv::ImplicitCert::parse(v.first(v.size() - 1)));
  util::Bytes longer(is.cert.begin(), is.cert.end());
  longer.push_back(0);
  EXPECT_FALSE(ecqv::ImplicitCert::parse(longer));
  for (const std::uint8_t version : {0x00, 0x02, 0xff}) {
    auto b = is.cert;
    b[0] = version;
    EXPECT_FALSE(ecqv::ImplicitCert::parse(b)) << int(version);
  }
  for (const std::uint8_t prefix : {0x00, 0x01, 0x04, 0x05}) {
    auto b = is.cert;
    b[17] = prefix;
    EXPECT_FALSE(ecqv::ImplicitCert::parse(b)) << int(prefix);
  }
  // x >= p, and an x that is no curve point's abscissa.
  auto big = is.cert;
  std::fill(big.begin() + 18, big.end(), 0xff);
  EXPECT_FALSE(ecqv::ImplicitCert::parse(big));
  int off_curve = 0;
  for (std::uint8_t t = 0; t < 16; ++t) {
    auto b = is.cert;
    b[49] ^= t;
    const bool ok = ecqv::ImplicitCert::parse(b).has_value();
    const bool on = p256::decompress(U256::from_bytes(util::BytesView(b).subspan(18)),
                                     b[17] == 0x03)
                        .has_value();
    EXPECT_EQ(ok, on);
    off_curve += !on;
  }
  EXPECT_GT(off_curve, 0);  // about half of all x are not on the curve
  // The other y of the same x is a different, equally valid certificate.
  auto flipped = is.cert;
  flipped[17] ^= 0x01;
  const auto f = ecqv::ImplicitCert::parse(flipped);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->encode(), flipped);
}

TEST(Ecqv, CertScalarIsHashModN) {
  const ecqv::Issued is = issue_ok(make_ca(1), 2);
  const Digest h = sha256(is.cert);
  const auto e = ecqv::cert_scalar(is.cert);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, mod_generic(U256::from_bytes(h), p256::N()));
}

TEST(Ecqv, IssueRejectsOutOfRangeK) {
  const Ca ca = make_ca(1);
  EXPECT_THROW((void)ecqv::issue(ca.d, ca.id, 1, U256{}), std::invalid_argument);
  EXPECT_THROW((void)ecqv::issue(ca.d, ca.id, 1, p256::N()),
               std::invalid_argument);
}

// --- reconstruction ---------------------------------------------------------

TEST(Ecqv, ReconstructedKeyEqualsDTimesGOnCombAndReference) {
  const Ca ca = make_ca(2);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const ecqv::Issued is = issue_ok(ca, i);
    // d_U = e*k + d_CA.
    const U256 e = *ecqv::cert_scalar(is.cert);
    EXPECT_EQ(is.d, add_mod(mul_mod(e, scalar_of("k", i), p256::N()), ca.d,
                            p256::N()));
    const auto q = ecqv::reconstruct(is.cert, ca.pub);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->point, p256::to_affine(p256::scalar_mult_base(is.d))) << i;
    EXPECT_EQ(q->point, p256::to_affine(p256::scalar_mult(is.d, p256::generator())))
        << i;
  }
}

TEST(Ecqv, ReconstructRejectsBadInputs) {
  const Ca ca = make_ca(3);
  const ecqv::Issued is = issue_ok(ca, 0);
  auto bad = is.cert;
  bad[17] = 0x04;
  EXPECT_FALSE(ecqv::reconstruct(bad, ca.pub).has_value());
  EcdsaPublicKey off = ca.pub;
  off.point.y = add_mod(off.point.y, U256::one(), p256::P());
  EXPECT_FALSE(ecqv::reconstruct(is.cert, off).has_value());
  // Another CA key reconstructs a different (useless) key.
  const auto other = ecqv::reconstruct(is.cert, make_ca(4).pub);
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(other->point, ecqv::reconstruct(is.cert, ca.pub)->point);
}

// --- per-item verification --------------------------------------------------

TEST(Ecqv, VerifyDigestAcceptsCertifiedSignerOnly) {
  const Ca ca = make_ca(5);
  const ecqv::Issued is = issue_ok(ca, 3);
  const auto c = *ecqv::ImplicitCert::parse(is.cert);
  const U256 e = *ecqv::cert_scalar(is.cert);
  const Digest d = test_digest(1);
  const EcdsaSignature sig = ecdsa_sign_digest(is.d, d);
  EXPECT_TRUE(ecqv::verify_digest(c.reconstruction, e, ca.pub, d, sig));
  EXPECT_FALSE(ecqv::verify_digest(c.reconstruction, e, ca.pub, test_digest(2), sig));
  EXPECT_FALSE(ecqv::verify_digest(c.reconstruction, e, make_ca(6).pub, d, sig));
  EXPECT_FALSE(ecqv::verify_digest(c.reconstruction, U256{}, ca.pub, d, sig));
  EXPECT_FALSE(ecqv::verify_digest(c.reconstruction, p256::N(), ca.pub, d, sig));
  EXPECT_FALSE(ecqv::verify_digest(c.reconstruction, add_mod(e, U256::one(), p256::N()),
                                   ca.pub, d, sig));
  // The one signing routine: EcdsaPrivateKey signs through it.
  const auto key = EcdsaPrivateKey::from_secret(is.d.to_bytes());
  EXPECT_EQ(key.sign_digest(d), sig);
  EXPECT_EQ(key.public_key(), *ecqv::reconstruct(is.cert, ca.pub));
}

TEST(Ecqv, VerifyDigestRejectsIdentityKey) {
  // P_U = -Q_CA with e = 1 makes Q_U = O, a key anyone can sign for:
  // R = k*G, s = z/k satisfies u1*G + u2*O = R. The check must still fail.
  const Ca ca = make_ca(7);
  p256::AffinePoint neg = ca.pub.point;
  neg.y = sub_mod(U256{}, neg.y, p256::P());
  const Digest d = test_digest(9);
  const U256 z = p256::nreduce(U256::from_bytes(d));
  const U256 k = scalar_of("forge", 0);
  const p256::AffinePoint R = p256::to_affine(p256::scalar_mult_base(k));
  EcdsaSignature forged{p256::nreduce(R.x), p256::nmul(z, p256::ninv(k))};
  forged.r_parity = R.y.is_odd() ? 1 : 0;
  // The bare equation holds: this is a working forgery without the check.
  const U256 w = p256::ninv(forged.s);
  const U256 u2 = p256::nmul(forged.r, w);
  EXPECT_TRUE(p256::x_equals_mod_n(
      p256::multi_scalar_mult(p256::nmul(z, w), {{u2, neg}, {u2, ca.pub.point}}),
      forged.r));
  EXPECT_FALSE(ecqv::verify_digest(neg, U256::one(), ca.pub, d, forged));
  BatchVerifyItem it{nullptr, d, &forged, &ca.pub, U256::one(), {}};
  const EcdsaPublicKey neg_key{neg};
  it.pub = &neg_key;
  EXPECT_FALSE(ecdsa_verify_item(it));
  EXPECT_EQ(ecdsa_verify_batch({it}), std::vector<bool>{false});
}

// --- batch: merged CA term --------------------------------------------------

struct Implicit {
  ecqv::ImplicitCert::Encoding cert;
  EcdsaPublicKey pu;  // reconstruction point
  U256 e;
  Digest digest;
  EcdsaSignature sig;
  const EcdsaPublicKey* ca;
};

std::vector<Implicit> make_implicit(std::size_t n, const Ca& ca) {
  std::vector<Implicit> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    const ecqv::Issued is = issue_ok(ca, idx);
    Implicit im;
    im.cert = is.cert;
    im.pu.point = ecqv::ImplicitCert::parse(is.cert)->reconstruction;
    im.e = *ecqv::cert_scalar(is.cert);
    im.digest = test_digest(idx);
    im.sig = ecdsa_sign_digest(is.d, im.digest);
    im.ca = &ca.pub;
    out.push_back(im);
  }
  return out;
}

std::vector<BatchVerifyItem> items_of(const std::vector<Implicit>& v) {
  std::vector<BatchVerifyItem> items;
  for (const Implicit& im : v) {
    items.push_back({&im.pu, im.digest, &im.sig, im.ca, im.e,
                     util::BytesView(im.cert.data(), im.cert.size())});
  }
  return items;
}

/// Reference verdict: the key rebuilt from the certificate bytes and the
/// item's CA key, then the slow Shamir verifier. An injected e that is not
/// the certificate's hash scalar is judged on the key it implies.
bool reference_verdict(const BatchVerifyItem& it) {
  if (it.e.is_zero() || cmp(it.e, p256::N()) >= 0) return false;
  const p256::JacobianPoint q = p256::multi_scalar_mult(
      U256{}, {{it.e, it.pub->point}, {U256::one(), it.ca->point}});
  if (q.is_infinity()) return false;
  return ecdsa_verify_digest_slow(EcdsaPublicKey{p256::to_affine(q)},
                                  it.digest, *it.sig);
}

void expect_matches_reference(const std::vector<BatchVerifyItem>& items,
                              const std::vector<bool>& got) {
  ASSERT_EQ(got.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(got[i], reference_verdict(items[i])) << "item " << i;
    EXPECT_EQ(got[i], ecdsa_verify_item(items[i])) << "item " << i;
  }
}

TEST(EcqvBatch, AllValidBatchIsOneRlcCheckWithReconstructedKeysAgreeing) {
  const Ca ca = make_ca(10);
  const auto corpus = make_implicit(65, ca);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{64},
                              std::size_t{65}}) {
    const std::vector<Implicit> slice(corpus.begin(), corpus.begin() + n);
    const auto items = items_of(slice);
    BatchVerifyStats st;
    const auto got = ecdsa_verify_batch(items, {}, &st);
    expect_matches_reference(items, got);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(got[i]) << n << "/" << i;
      // The reconstructed key verifies the same signature explicitly.
      EXPECT_TRUE(ecdsa_verify_digest_slow(
          *ecqv::reconstruct(slice[i].cert, ca.pub), slice[i].digest,
          slice[i].sig));
    }
    EXPECT_EQ(st.rlc_checks, n > 1 ? 1u : 0u);
    EXPECT_EQ(st.bisections, 0u);
  }
}

TEST(EcqvBatch, PoisonedItemsMatchReferenceAtEverySize) {
  const Ca ca = make_ca(11);
  const Ca wrong = make_ca(12);
  const auto corpus = make_implicit(65, ca);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{64},
                              std::size_t{65}}) {
    std::vector<Implicit> slice(corpus.begin(), corpus.begin() + n);
    // Poison up to four positions, one per attack, spread over the batch.
    const std::size_t at[4] = {0, n / 3, n / 2, n - 1};
    for (int attack = 0; attack < 4; ++attack) {
      Implicit& im = slice[at[attack]];
      switch (attack) {
        case 0:  // certified by another CA than the one the receiver trusts
          im.ca = &wrong.pub;
          break;
        case 1:  // one subject byte flipped: a different e, a different key
          im.cert[12] ^= 0x40;
          im.e = *ecqv::cert_scalar(im.cert);
          break;
        case 2:  // tampered signature
          im.sig.s = add_mod(im.sig.s, U256::one(), p256::N());
          break;
        case 3:  // injected e == 0 (no hash output; must be rejected)
          im.e = U256{};
          break;
      }
    }
    const auto items = items_of(slice);
    BatchVerifyStats st;
    const auto got = ecdsa_verify_batch(items, {}, &st);
    expect_matches_reference(items, got);
    for (int attack = 0; attack < 4; ++attack) {
      EXPECT_FALSE(got[at[attack]]) << n << " attack " << attack;
    }
    if (n > 4) {
      EXPECT_GT(st.bisections, 0u);
    }
  }
}

TEST(EcqvBatch, PrecomputedCaTableChangesNoVerdict) {
  // The CA table is an acceleration only: with it, verdicts stay those of
  // the reference, including for items whose CA key is not the table's
  // point (the MSM then builds that term's table as usual).
  const Ca ca = make_ca(13), wrong = make_ca(14);
  const p256::OddMultiples table(ca.pub.point);
  auto corpus = make_implicit(65, ca);
  corpus[3].ca = &wrong.pub;
  corpus[40].sig.s = add_mod(corpus[40].sig.s, U256::one(), p256::N());
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{65}}) {
    const std::vector<Implicit> slice(corpus.begin(), corpus.begin() + n);
    auto items = items_of(slice);
    const auto plain = ecdsa_verify_batch(items);
    for (auto& it : items) it.ca_table = &table;
    const auto tabled = ecdsa_verify_batch(items);
    EXPECT_EQ(tabled, plain) << n;
    expect_matches_reference(items, tabled);
  }
  EXPECT_THROW(p256::OddMultiples(p256::AffinePoint::make_infinity()),
               std::invalid_argument);
}

TEST(EcqvBatch, MixedExplicitAndImplicitWithRepeatedSigners) {
  // Explicit items from two keys repeated across the batch (their Q terms
  // merge), implicit items from two CAs (two merged CA terms), one bad
  // signature of each kind.
  const Ca ca1 = make_ca(20), ca2 = make_ca(21);
  auto a = make_implicit(10, ca1);
  auto b = make_implicit(10, ca2);
  const auto k1 = EcdsaPrivateKey::from_secret(scalar_of("ex", 1).to_bytes());
  const auto k2 = EcdsaPrivateKey::from_secret(scalar_of("ex", 2).to_bytes());
  std::vector<EcdsaPublicKey> pubs;
  std::vector<EcdsaSignature> sigs;
  std::vector<Digest> digests;
  for (std::uint32_t i = 0; i < 12; ++i) {
    const EcdsaPrivateKey& k = i % 2 ? k1 : k2;
    digests.push_back(test_digest(100 + i));
    sigs.push_back(k.sign_digest(digests.back()));
    pubs.push_back(k.public_key());
  }
  sigs[5].s = add_mod(sigs[5].s, U256::one(), p256::N());
  b[7].sig.s = add_mod(b[7].sig.s, U256::one(), p256::N());
  std::vector<BatchVerifyItem> items = items_of(a);
  const auto ib = items_of(b);
  items.insert(items.end(), ib.begin(), ib.end());
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    items.push_back({&pubs[i], digests[i], &sigs[i]});
  }
  const auto got = ecdsa_verify_batch(items);
  ASSERT_EQ(got.size(), items.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const bool want = items[i].implicit()
                          ? reference_verdict(items[i])
                          : ecdsa_verify_digest_slow(*items[i].pub,
                                                     items[i].digest,
                                                     *items[i].sig);
    EXPECT_EQ(got[i], want) << i;
    bad += !got[i];
  }
  EXPECT_EQ(bad, 2u);
  // All valid: one RLC check over the merged terms.
  sigs[5] = k1.sign_digest(digests[5]);
  b[7].sig = ecdsa_sign_digest(issue_ok(ca2, 7).d, b[7].digest);
  BatchVerifyStats st;
  const auto ok = ecdsa_verify_batch(items, {}, &st);
  EXPECT_EQ(std::count(ok.begin(), ok.end(), true),
            static_cast<std::ptrdiff_t>(items.size()));
  EXPECT_EQ(st.rlc_checks, 1u);
}

TEST(EcqvBatch, EngineCacheSeparatesCas) {
  // The same reconstruction point, digest and signature under two CA keys
  // are two different keys: the result cache must not answer one with the
  // other.
  const Ca ca = make_ca(30), other = make_ca(31);
  auto v = make_implicit(3, ca);
  VerifyEngine engine;
  engine.set_batch_kernel(true);
  auto items = items_of(v);
  EXPECT_EQ(engine.verify_batch(items), std::vector<bool>(3, true));
  for (auto& it : items) it.ca = &other.pub;
  EXPECT_EQ(engine.verify_batch(items), std::vector<bool>(3, false));
  EXPECT_EQ(engine.cache_hits(), 0u);
  EXPECT_EQ(engine.verify_batch({items_of(v)[0]}), std::vector<bool>{true});
  EXPECT_EQ(engine.cache_hits(), 1u);
  // A single-miss burst takes the engine's per-item path.
  VerifyEngine fresh;
  fresh.set_batch_kernel(true);
  EXPECT_EQ(fresh.verify_batch({items_of(v)[1]}), std::vector<bool>{true});
  EXPECT_EQ(fresh.verify_batch({items[1]}), std::vector<bool>{false});
  EXPECT_EQ(fresh.batched_calls(), 0u);
}

// --- short-scalar wNAF tables -------------------------------------------------

p256::AffinePoint point_of(std::uint32_t i) {
  return p256::to_affine(p256::scalar_mult_base(scalar_of("pt", i)));
}

/// g*G + sum s_i*P_i on the U256 reference tier.
p256::AffinePoint reference_msm(const U256& g,
                                const std::vector<p256::MultiScalarTerm>& terms) {
  p256::JacobianPoint acc = p256::scalar_mult(g, p256::generator());
  for (const auto& t : terms) {
    if (t.point.infinity) continue;
    acc = p256::add(acc, p256::scalar_mult(t.scalar, t.point));
  }
  return p256::to_affine(acc);
}

TEST(P256MultiScalar, ShortScalarsMatchReference) {
  U256 two63{}, max64{};
  two63.w[1] = 0x80000000u;
  max64.w[0] = max64.w[1] = 0xffffffffu;
  for (const U256& k : {U256::one(), two63, max64, U256::from_u64(3),
                        U256::from_u64(0xdeadbeefcafef00dULL)}) {
    const std::vector<p256::MultiScalarTerm> terms{{k, point_of(1)}};
    EXPECT_EQ(p256::to_affine(p256::multi_scalar_mult(U256{}, terms)),
              reference_msm(U256{}, terms))
        << k.to_hex();
  }
}

TEST(P256MultiScalar, WnafCarryPatternsMatchReference) {
  // Runs of ones make every window digit negative and carry up to the bit
  // past the top one; limb-straddling windows and every term width plus the
  // width-8 G term see them.
  std::vector<U256> ks;
  for (const char* hex :
       {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
        "00000000000000000000000000000000ffffffffffffffffffffffffffffffff",
        "000000000000000000000000000000000000000000000001fffffffffffffffe",
        "0000000000000000000000000000000000000000000000008000000000000001",
        "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632550"}) {
    ks.push_back(U256::from_hex(hex));
  }
  for (const U256& k : ks) {
    const std::vector<p256::MultiScalarTerm> terms{{k, point_of(2)}};
    EXPECT_EQ(p256::to_affine(p256::multi_scalar_mult(k, terms)),
              reference_msm(k, terms))
        << k.to_hex();
  }
}

TEST(P256MultiScalar, MixedWidthTermSetsMatchReference) {
  U256 two63{}, max64{};
  two63.w[1] = 0x80000000u;
  max64.w[0] = max64.w[1] = 0xffffffffu;
  U256 mid = scalar_of("mid", 0);  // 128-bit: the width-4 band
  for (std::size_t i = 4; i < 8; ++i) mid.w[i] = 0;
  const U256 full = scalar_of("full", 0);
  const std::vector<p256::MultiScalarTerm> terms{
      {max64, point_of(2)},
      {full, point_of(3)},
      {U256{}, point_of(4)},                               // zero scalar
      {two63, p256::AffinePoint::make_infinity()},         // infinity
      {U256::one(), point_of(5)},
      {mid, point_of(6)},
      {scalar_of("full", 1), point_of(7)},
      {two63, point_of(8)},
      {U256::from_u64(0x8000000000000001ULL), point_of(2)},  // repeated base
  };
  for (const U256& g : {U256{}, U256::one(), scalar_of("g", 0)}) {
    EXPECT_EQ(p256::to_affine(p256::multi_scalar_mult(g, terms)),
              reference_msm(g, terms));
  }
  // Only dead terms: infinity.
  EXPECT_TRUE(p256::multi_scalar_mult(
                  U256{}, {{U256{}, point_of(1)},
                           {max64, p256::AffinePoint::make_infinity()}})
                  .is_infinity());
}

TEST(P256MultiScalar, PrecomputedTableMatchesReference) {
  U256 max64{};
  max64.w[0] = max64.w[1] = 0xffffffffu;
  const p256::OddMultiples table(point_of(3));
  for (const U256& k : {U256::one(), max64, scalar_of("tab", 0),
                        U256::from_hex("ffffffffffffffffffffffffffffffff"
                                       "ffffffffffffffffffffffffffffffff")}) {
    const std::vector<p256::MultiScalarTerm> terms{
        {k, point_of(3), &table}, {scalar_of("tab", 1), point_of(4)},
        {U256::one(), point_of(5), &table}};  // table of another point: unused
    EXPECT_EQ(p256::to_affine(p256::multi_scalar_mult(U256::one(), terms)),
              reference_msm(U256::one(), terms))
        << k.to_hex();
  }
}

TEST(P256MultiScalar, AddScalarMultBaseMatchesReference) {
  const p256::JacobianPoint p = p256::multi_scalar_mult(
      U256{}, {{scalar_of("add", 0), point_of(9)}});
  for (const U256& k : {U256{}, U256::one(), scalar_of("add", 1),
                        sub_mod(U256{}, U256::one(), p256::N())}) {
    EXPECT_EQ(p256::to_affine(p256::add_scalar_mult_base(p, k)),
              p256::to_affine(p256::add(p, p256::scalar_mult(k, p256::generator()))))
        << k.to_hex();
  }
  // From infinity it is the plain comb; onto -k*G it cancels to infinity.
  const U256 k = scalar_of("add", 2);
  EXPECT_EQ(p256::to_affine(p256::add_scalar_mult_base(
                p256::JacobianPoint::make_infinity(), k)),
            p256::to_affine(p256::scalar_mult_base(k)));
  EXPECT_TRUE(p256::add_scalar_mult_base(
                  p256::scalar_mult_base(sub_mod(U256{}, k, p256::N())), k)
                  .is_infinity());
}

}  // namespace
}  // namespace aseck::crypto
