#include "model/serialize.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
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

numeric::Matrix read_matrix(std::istream& in) {
  const std::uint64_t rows = read_u64(in);
  const std::uint64_t cols = read_u64(in);
  if (!in || rows > 1'000'000 || cols > 1'000'000) {
    throw std::runtime_error("load_model: corrupt matrix header");
  }
  numeric::Matrix m(static_cast<std::size_t>(rows),
                    static_cast<std::size_t>(cols));
  in.read(reinterpret_cast<char*>(m.data().data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!in) {
    throw std::runtime_error("load_model: truncated matrix payload");
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
  // Written beside the target under a name no other writer uses, then
  // renamed over it: a reader opens either the old file or the complete
  // new one, never a half-written one, and an interrupted save leaves
  // the old file in place.
  static std::atomic<unsigned> saves{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "_" +
                          std::to_string(saves++);
  try {
    {
      std::ofstream out(tmp, std::ios::binary);
      if (!out) {
        throw std::runtime_error("save_model_file: cannot open " + tmp);
      }
      save_model(out, model);
      out.close();
      if (!out) {
        throw std::runtime_error("save_model_file: write failed on " + tmp);
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
  Parameters p;
  p.embedding_a = read_matrix(in);
  p.embedding_c = read_matrix(in);
  p.embedding_q = read_matrix(in);
  p.w_r = read_matrix(in);
  p.w_o = read_matrix(in);
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
