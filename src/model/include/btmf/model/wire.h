// Wire codec for ScenarioSpec: the canonical fingerprint, made two-way.
//
// The serve protocol (docs/SERVE.md) ships scenario descriptions between
// processes, and the one encoding that can never drift from the cache key
// is the fingerprint itself: ScenarioSpec::fingerprint() is already a
// canonical, whitespace-free "key=value;..." rendering of every
// result-affecting field with exact round-trip doubles. encode_spec() is
// therefore defined as the fingerprint, and decode_spec() is its exact
// inverse — decode(encode(s)) fingerprints identically to s, so a daemon
// that keys its cache on the decoded spec computes the very same key the
// sending client would. Execution knobs (shards, kernel_threads) are
// excluded on both sides, exactly as they are from the fingerprint: the
// serving process decides its own execution configuration.
#pragma once

#include <string>
#include <string_view>

#include "btmf/model/spec.h"

namespace btmf::model {

/// Canonical single-line wire form of `spec` — identical to
/// spec.fingerprint(). Never contains whitespace or newlines.
[[nodiscard]] std::string encode_spec(const ScenarioSpec& spec);

/// Exact inverse of encode_spec. Requires every fingerprint key exactly
/// once (order-insensitive) and rejects unknown keys, so a spec from a
/// different library generation fails loudly instead of half-parsing,
/// and any whitespace byte, so no padded wire names an encoded spec.
/// The decoded spec is validate()d before it is returned. Throws
/// btmf::ConfigError on any malformed input.
[[nodiscard]] ScenarioSpec decode_spec(std::string_view wire);

}  // namespace btmf::model
