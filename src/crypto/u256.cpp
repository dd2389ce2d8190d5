#include "crypto/u256.hpp"

#include <stdexcept>

namespace aseck::crypto {

U256 U256::from_hex(std::string_view hex) {
  if (hex.size() > 64) throw std::invalid_argument("U256::from_hex: too long");
  U256 r;
  // Process from the least-significant end.
  int limb = 0, shift = 0;
  for (auto it = hex.rbegin(); it != hex.rend(); ++it) {
    const char c = *it;
    std::uint32_t v;
    if (c >= '0' && c <= '9') v = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v = static_cast<std::uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v = static_cast<std::uint32_t>(c - 'A' + 10);
    else throw std::invalid_argument("U256::from_hex: bad digit");
    r.w[static_cast<std::size_t>(limb)] |= v << shift;
    shift += 4;
    if (shift == 32) {
      shift = 0;
      ++limb;
    }
  }
  return r;
}

U256 U256::from_bytes(util::BytesView be) {
  if (be.size() > 32) throw std::invalid_argument("U256::from_bytes: too long");
  U256 r;
  std::size_t bit_pos = 0;
  for (std::size_t i = 0; i < be.size(); ++i) {
    const std::uint8_t byte = be[be.size() - 1 - i];
    r.w[bit_pos / 32] |= static_cast<std::uint32_t>(byte) << (bit_pos % 32);
    bit_pos += 8;
  }
  return r;
}

util::Bytes U256::to_bytes() const {
  const std::array<std::uint8_t, 32> a = to_array();
  return util::Bytes(a.begin(), a.end());
}

std::array<std::uint8_t, 32> U256::to_array() const {
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 8; ++i) {
    util::store_be32(&out[4 * i], w[7 - i]);
  }
  return out;
}

std::string U256::to_hex() const { return util::to_hex(to_bytes()); }

bool U256::is_zero() const {
  for (auto v : w) {
    if (v) return false;
  }
  return true;
}

int U256::top_bit() const {
  for (int i = 7; i >= 0; --i) {
    if (w[static_cast<std::size_t>(i)]) {
      return 32 * i + 31 - __builtin_clz(w[static_cast<std::size_t>(i)]);
    }
  }
  return -1;
}

int cmp(const U256& a, const U256& b) {
  for (int i = 7; i >= 0; --i) {
    const auto ai = a.w[static_cast<std::size_t>(i)];
    const auto bi = b.w[static_cast<std::size_t>(i)];
    if (ai != bi) return ai < bi ? -1 : 1;
  }
  return 0;
}

bool operator<(const U256& a, const U256& b) { return cmp(a, b) < 0; }

std::uint32_t add(U256& out, const U256& a, const U256& b) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t t = std::uint64_t{a.w[i]} + b.w[i] + carry;
    out.w[i] = static_cast<std::uint32_t>(t);
    carry = t >> 32;
  }
  return static_cast<std::uint32_t>(carry);
}

std::uint32_t sub(U256& out, const U256& a, const U256& b) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t t = std::uint64_t{a.w[i]} - b.w[i] - borrow;
    out.w[i] = static_cast<std::uint32_t>(t);
    borrow = (t >> 32) & 1;
  }
  return static_cast<std::uint32_t>(borrow);
}

std::uint32_t shl1(U256& v) {
  std::uint32_t carry = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint32_t next = v.w[i] >> 31;
    v.w[i] = (v.w[i] << 1) | carry;
    carry = next;
  }
  return carry;
}

void shr1(U256& v) {
  std::uint32_t carry = 0;
  for (int i = 7; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint32_t next = v.w[idx] & 1u;
    v.w[idx] = (v.w[idx] >> 1) | (carry << 31);
    carry = next;
  }
}

U512 mul(const U256& a, const U256& b) {
  // Schoolbook on 64-bit limbs with 128-bit partial products: 16 wide
  // multiplies instead of 64 narrow ones.
  std::uint64_t al[4], bl[4], rl[8] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    al[i] = std::uint64_t{a.w[2 * i]} | (std::uint64_t{a.w[2 * i + 1]} << 32);
    bl[i] = std::uint64_t{b.w[2 * i]} | (std::uint64_t{b.w[2 * i + 1]} << 32);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const __uint128_t t = static_cast<__uint128_t>(al[i]) * bl[j] +
                            rl[i + j] + carry;
      rl[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    rl[i + 4] = carry;
  }
  U512 r;
  for (std::size_t i = 0; i < 8; ++i) {
    r.w[2 * i] = static_cast<std::uint32_t>(rl[i]);
    r.w[2 * i + 1] = static_cast<std::uint32_t>(rl[i] >> 32);
  }
  return r;
}

U256 mod_generic(const U512& x, const U256& m) {
  if (m.is_zero()) throw std::invalid_argument("mod_generic: zero modulus");
  U256 r;  // remainder, always < m
  for (int bit = 511; bit >= 0; --bit) {
    const std::uint32_t carry = shl1(r);
    const std::uint32_t in =
        (x.w[static_cast<std::size_t>(bit / 32)] >> (bit % 32)) & 1u;
    r.w[0] |= in;
    // 2r+bit < 2m, so at most one subtraction restores r < m.
    if (carry || cmp(r, m) >= 0) {
      U256 t;
      sub(t, r, m);
      r = t;
    }
  }
  return r;
}

U256 mod_generic(const U256& x, const U256& m) {
  U512 wide;
  for (std::size_t i = 0; i < 8; ++i) wide.w[i] = x.w[i];
  return mod_generic(wide, m);
}

U256 add_mod(const U256& a, const U256& b, const U256& m) {
  U256 r;
  const std::uint32_t carry = add(r, a, b);
  if (carry || cmp(r, m) >= 0) {
    U256 t;
    sub(t, r, m);
    r = t;
  }
  return r;
}

U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  U256 r;
  if (sub(r, a, b)) {
    U256 t;
    add(t, r, m);
    r = t;
  }
  return r;
}

U256 mul_mod(const U256& a, const U256& b, const U256& m) {
  return mod_generic(mul(a, b), m);
}

U256 pow_mod(const U256& a, const U256& e, const U256& m) {
  U256 result = U256::one();
  const int top = e.top_bit();
  if (top < 0) return mod_generic(result, m);
  U256 base = mod_generic(a, m);
  for (int i = top; i >= 0; --i) {
    if (i != top) result = mul_mod(result, result, m);
    if (e.bit(static_cast<unsigned>(i))) {
      result = (i == top) ? base : mul_mod(result, base, m);
    }
  }
  return result;
}

namespace {
/// x = x / 2 mod m for odd m: shift right, adding m first if x is odd.
void half_mod(U256& x, const U256& m) {
  std::uint32_t carry = 0;
  if (x.is_odd()) carry = add(x, x, m);
  shr1(x);
  if (carry) x.w[7] |= 0x80000000u;
}
}  // namespace

U256 inv_mod_prime(const U256& a, const U256& m) {
  // Binary extended GCD (m odd, gcd(a, m) = 1) — orders of magnitude faster
  // than Fermat exponentiation with generic reduction.
  U256 u = mod_generic(a, m);
  // u == 0 would never turn odd below and spin forever.
  if (u.is_zero()) {
    throw std::invalid_argument("inv_mod_prime: zero has no inverse");
  }
  U256 v = m;
  U256 x1 = U256::one();
  U256 x2 = U256::zero();
  const U256 one = U256::one();
  while (!(u == one) && !(v == one)) {
    while (!u.is_odd()) {
      shr1(u);
      half_mod(x1, m);
    }
    while (!v.is_odd()) {
      shr1(v);
      half_mod(x2, m);
    }
    if (cmp(u, v) >= 0) {
      U256 t;
      sub(t, u, v);
      u = t;
      x1 = sub_mod(x1, x2, m);
    } else {
      U256 t;
      sub(t, v, u);
      v = t;
      x2 = sub_mod(x2, x1, m);
    }
  }
  return u == one ? x1 : x2;
}

}  // namespace aseck::crypto
