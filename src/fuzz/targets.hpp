#pragma once
// Built-in fuzz targets: each wraps one wire-format parser in an invariant
// oracle (fuzz/fuzzer.hpp's ExecResult contract) plus seeds and a protocol
// dictionary. The oracle list per target:
//
//   someip — parse/serialize round-trip fixpoint; declared length always
//            bounds the payload (the V11 integer-overflow class).
//   uds    — every response is a well-formed positive [SID+0x40, ...] or
//            negative [0x7F, SID, NRC] triple; the server only unlocks when
//            the exact CMAC seed/key pair was presented (V9 bypass);
//            RequestDownload only succeeds unlocked + programming session.
//   can    — decode_wire acceptance implies valid() and an exact re-encode
//            (V10 DLC-overflow class); wire-bit accounting never traps.
//   secoc  — accepted PDUs carry a verifiable MAC over the reconstructed
//            freshness; accepted freshness is strictly monotone and within
//            the window; an accepted PDU replayed verbatim is rejected (V4).
//   ota    — every parsed metadata role re-serializes to the input bytes
//            (full-consumption fixpoint over the V12 header-overflow class).
//   ecqv   — an accepted implicit certificate re-encodes to the input bytes
//            and its reconstruction point decompresses onto the curve.
//   bsm    — an accepted V2X Basic Safety Message serializes back to the
//            input bytes (parse/serialize fixpoint, doubles bit-exact).
//   attest — accepted boot attestation evidence re-serializes to the exact
//            input bytes (strict versioned, length-prefixed wire format).
//
// Out-of-bounds reads/writes are the implicit oracle everywhere: the
// fuzz-smoke CI job runs these targets under ASan/UBSan.

#include <vector>

#include "fuzz/fuzzer.hpp"

namespace aseck::fuzz {

FuzzTarget someip_target();
FuzzTarget uds_target();
FuzzTarget can_target();
FuzzTarget secoc_target();
FuzzTarget ota_target();
FuzzTarget ecqv_target();
FuzzTarget bsm_target();
FuzzTarget attest_target();

/// All of the above, in deterministic order.
std::vector<FuzzTarget> builtin_targets();

}  // namespace aseck::fuzz
