#include "store/edge_writer.h"

#include <filesystem>
#include <sstream>

#include "util/error.h"
#include "util/file_bytes.h"

namespace pagen::store {

std::string shard_path(const std::string& dir, int rank) {
  return dir + "/edges." + std::to_string(rank) + ".pcs";
}

std::string manifest_path(const std::string& dir) {
  return dir + "/store.manifest";
}

void write_manifest(const std::string& dir, const StoreManifest& manifest) {
  std::ostringstream os;
  os << "pagen-store 3\n";
  os << "nodes " << manifest.num_nodes << "\n";
  os << "shards " << manifest.num_shards << "\n";
  os << "block_edges " << manifest.block_edges << "\n";
  for (int r = 0; r < manifest.num_shards; ++r) {
    const ShardSummary& s = manifest.shards[static_cast<std::size_t>(r)];
    os << "shard " << r << " " << s.edges << " " << s.blocks << " " << s.bytes
       << " " << std::hex << s.file_checksum << std::dec << "\n";
  }
  const std::string text = os.str();
  save_bytes_atomic(manifest_path(dir),
                    std::vector<std::uint8_t>(text.begin(), text.end()));
}

StoreManifest load_manifest(const std::string& dir) {
  std::ifstream is(manifest_path(dir));
  PAGEN_CHECK_MSG(is.is_open(), "no compressed-store manifest in " << dir);
  std::string tag;
  int version = 0;
  is >> tag >> version;
  PAGEN_CHECK_MSG(is.good() && tag == "pagen-store" && version == 3,
                  "bad compressed-store manifest header in " << dir);
  StoreManifest manifest;
  is >> tag >> manifest.num_nodes;
  PAGEN_CHECK_MSG(is.good() && tag == "nodes", "malformed manifest: nodes");
  is >> tag >> manifest.num_shards;
  PAGEN_CHECK_MSG(is.good() && tag == "shards" && manifest.num_shards >= 1,
                  "malformed manifest: shards");
  is >> tag >> manifest.block_edges;
  PAGEN_CHECK_MSG(is.good() && tag == "block_edges" &&
                      manifest.block_edges >= 1 &&
                      manifest.block_edges <= kMaxBlockEdges,
                  "malformed manifest: block_edges");
  manifest.shards.resize(static_cast<std::size_t>(manifest.num_shards));
  for (int r = 0; r < manifest.num_shards; ++r) {
    int rank = -1;
    ShardSummary& s = manifest.shards[static_cast<std::size_t>(r)];
    is >> tag >> rank >> s.edges >> s.blocks >> s.bytes >> std::hex >>
        s.file_checksum >> std::dec;
    PAGEN_CHECK_MSG(is.good() && tag == "shard" && rank == r,
                    "malformed manifest: shard " << r);
  }
  return manifest;
}

bool streaming_file_fnv1a(const std::string& path, std::uint64_t& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return false;
  std::uint64_t h = kFnvOffset;
  std::vector<std::uint8_t> chunk(std::size_t{1} << 20);
  for (;;) {
    is.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<std::size_t>(is.gcount());
    h = fnv1a(std::span(chunk).first(got), h);
    if (got < chunk.size()) break;
  }
  out = h;
  return true;
}

CompressedEdgeWriter::CompressedEdgeWriter(const std::string& path,
                                           std::size_t block_edges)
    : os_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      block_edges_(block_edges) {
  PAGEN_CHECK_MSG(block_edges_ >= 1 && block_edges_ <= kMaxBlockEdges,
                  "block_edges must be in [1, " << kMaxBlockEdges << "]");
  PAGEN_CHECK_MSG(os_.is_open(), "cannot open " << path << " for writing");
  pending_.reserve(block_edges_);
  buf_.assign(kShardMagic, kShardMagic + sizeof(kShardMagic));
  write_bytes(buf_);
}

void CompressedEdgeWriter::append(const graph::Edge& edge) {
  PAGEN_CHECK_MSG(!finished_, "append on a finished shard writer");
  pending_.push_back(edge);
  if (pending_.size() >= block_edges_) flush_block();
}

void CompressedEdgeWriter::append(std::span<const graph::Edge> edges) {
  PAGEN_CHECK_MSG(!finished_, "append on a finished shard writer");
  for (const graph::Edge& e : edges) {
    pending_.push_back(e);
    if (pending_.size() >= block_edges_) flush_block();
  }
}

void CompressedEdgeWriter::flush_block() {
  if (pending_.empty()) return;
  const BlockHeader header = encode_block(pending_, payload_);
  buf_.clear();
  put_block_header(buf_, header);
  // put_block_header computed the definitive header checksum; chain it.
  const std::uint64_t header_sum =
      fnv1a(std::span(buf_).first(kBlockHeaderBytes - 8), kHeaderChecksumSeed);
  header_chain_ = fnv1a_u64(header_sum, header_chain_);
  write_bytes(buf_);
  write_bytes(payload_);
  edges_ += pending_.size();
  ++blocks_;
  pending_.clear();
}

ShardSummary CompressedEdgeWriter::finish() {
  PAGEN_CHECK_MSG(!finished_, "finish called twice on " << path_);
  flush_block();
  ShardTrailer trailer;
  trailer.num_blocks = blocks_;
  trailer.num_edges = edges_;
  trailer.header_chain = header_chain_;
  buf_.clear();
  put_trailer(buf_, trailer);
  write_bytes(buf_);
  os_.flush();
  PAGEN_CHECK_MSG(os_.good(), "shard write failed for " << path_);
  os_.close();
  finished_ = true;
  return {edges_, blocks_, bytes_, file_fnv_};
}

void CompressedEdgeWriter::write_bytes(const std::vector<std::uint8_t>& bytes) {
  os_.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  file_fnv_ = fnv1a(bytes, file_fnv_);
  bytes_ += bytes.size();
}

StoreWriter::StoreWriter(const std::string& dir, int num_shards,
                         std::size_t block_edges)
    : dir_(dir), block_edges_(block_edges) {
  PAGEN_CHECK_MSG(num_shards >= 1, "store needs at least one shard");
  std::filesystem::create_directories(dir);
  writers_.reserve(static_cast<std::size_t>(num_shards));
  for (int r = 0; r < num_shards; ++r) {
    writers_.push_back(std::make_unique<CompressedEdgeWriter>(
        shard_path(dir, r), block_edges_));
  }
}

void StoreWriter::append(Rank r, std::span<const graph::Edge> edges) {
  writers_.at(static_cast<std::size_t>(r))->append(edges);
}

StoreManifest StoreWriter::finish(NodeId num_nodes) {
  StoreManifest manifest;
  manifest.num_nodes = num_nodes;
  manifest.num_shards = static_cast<int>(writers_.size());
  manifest.block_edges = block_edges_;
  manifest.shards.reserve(writers_.size());
  for (auto& w : writers_) manifest.shards.push_back(w->finish());
  write_manifest(dir_, manifest);
  return manifest;
}

}  // namespace pagen::store
