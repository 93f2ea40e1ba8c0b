// Library version, for downstream feature checks.
#pragma once

namespace btmf {

inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 6;

/// "major.minor.patch"
inline constexpr const char* kVersionString = "1.0.6";

}  // namespace btmf
