#include "model/serialize.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mann::model {
namespace {

constexpr std::array<char, 4> kMagic = {'M', 'A', 'N', 'N'};
constexpr std::uint32_t kVersion = 1;

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_matrix(std::ostream& out, const numeric::Matrix& m) {
  write_u64(out, m.rows());
  write_u64(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.data().data()),
            static_cast<std::streamsize>(m.size() * sizeof(float)));
}

/// Bytes from the read position to the end of `in`: what a matrix header
/// is checked against before its payload is allocated. A stream that
/// cannot tell where it ends is refused.
std::uint64_t bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (!in || here == std::istream::pos_type(-1) ||
      end == std::istream::pos_type(-1)) {
    throw std::runtime_error("load_model: stream size unknown");
  }
  return static_cast<std::uint64_t>(end - here);
}

/// Reads a matrix that must be `rows` x `cols`, refusing its header
/// before allocating when the shape differs or the payload would run
/// past the end of the stream.
numeric::Matrix read_matrix(std::istream& in, std::uint64_t rows,
                            std::uint64_t cols) {
  const std::uint64_t stored_rows = read_u64(in);
  const std::uint64_t stored_cols = read_u64(in);
  if (!in || stored_rows != rows || stored_cols != cols) {
    throw std::runtime_error("load_model: corrupt matrix header");
  }
  if (rows > bytes_left(in) / sizeof(float) / cols) {
    throw std::runtime_error("load_model: truncated matrix payload");
  }
  numeric::Matrix m(static_cast<std::size_t>(rows),
                    static_cast<std::size_t>(cols));
  in.read(reinterpret_cast<char*>(m.data().data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!in) {
    throw std::runtime_error("load_model: truncated matrix payload");
  }
  // A NaN or infinite weight has no fixed-point word: a file holding one
  // is refused like any other corrupt file.
  for (const float w : m.data()) {
    if (!std::isfinite(w)) {
      throw std::runtime_error("load_model: non-finite weight");
    }
  }
  return m;
}

}  // namespace

void save_model(std::ostream& out, const MemN2N& model) {
  out.write(kMagic.data(), kMagic.size());
  std::uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const ModelConfig& cfg = model.config();
  write_u64(out, cfg.vocab_size);
  write_u64(out, cfg.embedding_dim);
  write_u64(out, cfg.hops);
  write_u64(out, cfg.max_memory);
  const Parameters& p = model.params();
  write_matrix(out, p.embedding_a);
  write_matrix(out, p.embedding_c);
  write_matrix(out, p.embedding_q);
  write_matrix(out, p.w_r);
  write_matrix(out, p.w_o);
  if (!out) {
    throw std::runtime_error("save_model: stream failure");
  }
}

void save_model_file(const std::string& path, const MemN2N& model) {
  std::ostringstream out;
  save_model(out, model);
  write_file_atomically(path, out.str());
}

void write_file_atomically(const std::string& path, std::string_view bytes) {
  // Written beside the target under a name no other writer uses, then
  // renamed over it: a reader opens either the old file or the complete
  // new one, never a half-written one, and an interrupted write leaves
  // the old file in place.
  static std::atomic<unsigned> writes{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "_" +
                          std::to_string(writes++);
  try {
    {
      std::ofstream out(tmp, std::ios::binary);
      if (!out) {
        throw std::runtime_error("write_file_atomically: cannot open " + tmp);
      }
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      out.close();
      if (!out) {
        throw std::runtime_error("write_file_atomically: write failed on " +
                                 tmp);
      }
    }
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

MemN2N load_model(std::istream& in) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || magic != kMagic || version != kVersion) {
    throw std::runtime_error("load_model: bad magic/version");
  }
  ModelConfig cfg;
  cfg.vocab_size = static_cast<std::size_t>(read_u64(in));
  cfg.embedding_dim = static_cast<std::size_t>(read_u64(in));
  cfg.hops = static_cast<std::size_t>(read_u64(in));
  cfg.max_memory = static_cast<std::size_t>(read_u64(in));
  if (!in || cfg.vocab_size == 0 || cfg.embedding_dim == 0 ||
      cfg.hops == 0 || cfg.max_memory == 0) {
    throw std::runtime_error("load_model: corrupt config");
  }
  const std::uint64_t v = cfg.vocab_size;
  const std::uint64_t e = cfg.embedding_dim;
  Parameters p;
  p.embedding_a = read_matrix(in, v, e);
  p.embedding_c = read_matrix(in, v, e);
  p.embedding_q = read_matrix(in, v, e);
  p.w_r = read_matrix(in, e, e);
  p.w_o = read_matrix(in, v, e);
  return MemN2N(cfg, std::move(p));
}

MemN2N load_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_model_file: cannot open " + path);
  }
  return load_model(in);
}

}  // namespace mann::model
