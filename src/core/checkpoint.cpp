#include "core/checkpoint.h"

#include <filesystem>
#include <span>

#include "util/error.h"
#include "util/file_bytes.h"
#include "util/hash.h"
#include "util/varint.h"

namespace pagen::core {
namespace {

/// "pagnckp2": format magic + version in one varint-framed constant. v2
/// appends an FNV-1a content checksum trailer (v1 files fail the magic
/// check and are treated as corrupt — regenerate, never restore garbage).
constexpr std::uint64_t kMagic = 0x7061676e636b7032ULL;

/// Bytes of the fixed-width FNV-1a trailer.
constexpr std::size_t kChecksumBytes = 8;

/// F entries are biased by one on disk so kNil (all-ones) stays a one-byte
/// varint instead of ten.
constexpr std::uint64_t encode_f(NodeId v) { return v == kNil ? 0 : v + 1; }
constexpr NodeId decode_f(std::uint64_t raw) {
  return raw == 0 ? kNil : static_cast<NodeId>(raw - 1);
}

void append_u64_le(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t read_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// A declared element count can never exceed the bytes left in the payload
/// (every varint element is at least one byte) — rejects the huge-alloc /
/// silent-garbage parses a corrupted count would otherwise cause.
std::size_t checked_count(const std::vector<std::uint8_t>& body,
                          std::size_t pos, std::uint64_t count, Rank rank) {
  PAGEN_CHECK_MSG(count <= body.size() - pos,
                  "checkpoint for rank " << rank << " declares " << count
                                         << " elements with only "
                                         << (body.size() - pos)
                                         << " payload bytes left");
  return static_cast<std::size_t>(count);
}

}  // namespace

std::string checkpoint_path(const std::string& dir, Rank rank) {
  return dir + "/pagen-ckpt-" + std::to_string(rank);
}

void save_checkpoint(const std::string& dir, const RankCheckpoint& ck) {
  // Racing create_directories from several rank threads is fine: it only
  // fails on a real error, not on "already exists".
  std::filesystem::create_directories(dir);
  std::vector<std::uint8_t> buf;
  buf.reserve(24 + ck.f.size() * 2);
  put_varint(buf, kMagic);
  put_varint(buf, ck.n);
  put_varint(buf, ck.x);
  put_varint(buf, ck.seed);
  put_varint(buf, static_cast<std::uint64_t>(ck.rank));
  put_varint(buf, static_cast<std::uint64_t>(ck.nranks));
  put_varint(buf, ck.f.size());
  for (const NodeId v : ck.f) put_varint(buf, encode_f(v));
  put_varint(buf, ck.attempts.size());
  for (const std::uint32_t a : ck.attempts) put_varint(buf, a);
  put_varint(buf, ck.locked_copy.size());
  for (const std::uint8_t l : ck.locked_copy) put_varint(buf, l);
  append_u64_le(buf, fnv1a(buf));
  save_bytes_atomic(checkpoint_path(dir, ck.rank), buf);
}

bool load_checkpoint(const std::string& dir, Rank rank, RankCheckpoint& out) {
  std::vector<std::uint8_t> buf;
  if (!try_load_bytes(checkpoint_path(dir, rank), buf)) return false;
  // Verify the content checksum before parsing a single field: a truncated,
  // extended, or bit-flipped file fails here, never restores garbage.
  PAGEN_CHECK_MSG(buf.size() > kChecksumBytes,
                  "checkpoint for rank " << rank << " is too short");
  const std::size_t payload = buf.size() - kChecksumBytes;
  PAGEN_CHECK_MSG(fnv1a(std::span(buf).first(payload)) ==
                      read_u64_le(buf.data() + payload),
                  "checkpoint checksum mismatch for rank " << rank);
  const std::vector<std::uint8_t> body(buf.begin(),
                                       buf.begin() + static_cast<std::ptrdiff_t>(payload));
  std::size_t pos = 0;
  PAGEN_CHECK_MSG(get_varint(body, pos) == kMagic,
                  "bad checkpoint magic for rank " << rank);
  out.n = get_varint(body, pos);
  out.x = get_varint(body, pos);
  out.seed = get_varint(body, pos);
  out.rank = static_cast<std::int32_t>(get_varint(body, pos));
  out.nranks = static_cast<std::int32_t>(get_varint(body, pos));
  PAGEN_CHECK_MSG(out.rank == rank, "checkpoint rank mismatch");
  out.f.resize(checked_count(body, pos, get_varint(body, pos), rank));
  for (NodeId& v : out.f) v = decode_f(get_varint(body, pos));
  out.attempts.resize(
      checked_count(body, pos, get_varint(body, pos), rank));
  for (std::uint32_t& a : out.attempts) {
    a = static_cast<std::uint32_t>(get_varint(body, pos));
  }
  out.locked_copy.resize(
      checked_count(body, pos, get_varint(body, pos), rank));
  for (std::uint8_t& l : out.locked_copy) {
    l = static_cast<std::uint8_t>(get_varint(body, pos));
  }
  PAGEN_CHECK_MSG(pos == body.size(),
                  "trailing bytes in checkpoint for rank " << rank);
  return true;
}

}  // namespace pagen::core
