// FNV-1a-64: the one hash of the codebase.
//
// Every checksum and identity hash (store blocks, trailers and whole-file
// sums, checkpoint trailers, svc spec hashes and store markers, golden edge
// fingerprints) is this function, so a value computed in one layer can be
// recomputed and compared in another. Byte-serial, little-endian for words.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace pagen {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over `bytes`, continuing from `h` (chainable).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                            std::uint64_t h = kFnvOffset) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Fold one little-endian u64 into an FNV-1a chain.
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t word,
                                                std::uint64_t h = kFnvOffset) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

/// Domain separation for the compressed store (docs/storage.md §2): block
/// header and trailer checksums start from different seeds (the chain after
/// one 'B' or 'T' byte), so 40 trailer bytes can never validate as a block
/// header.
inline constexpr std::uint64_t kHeaderChecksumSeed =
    (kFnvOffset ^ 'B') * kFnvPrime;
inline constexpr std::uint64_t kTrailerChecksumSeed =
    (kFnvOffset ^ 'T') * kFnvPrime;

/// Accumulator over little-endian u64 words and length-prefixed strings
/// (the golden edge fingerprint and the svc spec hash).
class Fnv1a {
 public:
  void word(std::uint64_t w) { h_ = fnv1a_u64(w, h_); }
  /// Length-prefixed so no two string sequences collide by concatenation.
  void str(std::string_view s) {
    word(s.size());
    h_ = fnv1a(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size()),
               h_);
  }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

}  // namespace pagen
