#include "util/file_bytes.h"

#include <cstdio>
#include <fstream>

#include "util/error.h"

namespace pagen {

void save_bytes_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    PAGEN_CHECK_MSG(os.is_open(), "cannot open " << tmp << " for writing");
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    PAGEN_CHECK_MSG(os.good(), "write failed for " << tmp);
  }
  PAGEN_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "atomic rename to " << path << " failed");
}

bool try_load_bytes(const std::string& path, std::vector<std::uint8_t>& out) {
  out.clear();
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return false;
  is.seekg(0, std::ios::end);
  const std::streamsize size = is.tellg();
  is.seekg(0, std::ios::beg);
  out.resize(static_cast<std::size_t>(size));
  if (size > 0) is.read(reinterpret_cast<char*>(out.data()), size);
  PAGEN_CHECK_MSG(is.good(), "read failed for " << path);
  return true;
}

}  // namespace pagen
