#include "model/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace mann::model {
namespace {

MemN2N make_model(std::uint64_t seed = 3) {
  ModelConfig c;
  c.vocab_size = 12;
  c.embedding_dim = 5;
  c.hops = 2;
  c.max_memory = 7;
  numeric::Rng rng(seed);
  return MemN2N(c, rng);
}

TEST(Serialize, RoundTripPreservesEverything) {
  const MemN2N original = make_model();
  std::stringstream buffer;
  save_model(buffer, original);
  const MemN2N loaded = load_model(buffer);

  EXPECT_EQ(loaded.config().vocab_size, original.config().vocab_size);
  EXPECT_EQ(loaded.config().embedding_dim, original.config().embedding_dim);
  EXPECT_EQ(loaded.config().hops, original.config().hops);
  EXPECT_EQ(loaded.config().max_memory, original.config().max_memory);
  EXPECT_EQ(loaded.params().embedding_a, original.params().embedding_a);
  EXPECT_EQ(loaded.params().embedding_c, original.params().embedding_c);
  EXPECT_EQ(loaded.params().embedding_q, original.params().embedding_q);
  EXPECT_EQ(loaded.params().w_r, original.params().w_r);
  EXPECT_EQ(loaded.params().w_o, original.params().w_o);
}

TEST(Serialize, LoadedModelPredictsIdentically) {
  const MemN2N original = make_model(17);
  std::stringstream buffer;
  save_model(buffer, original);
  const MemN2N loaded = load_model(buffer);

  data::EncodedStory s;
  s.context = {{0, 1, 2}, {3, 4}};
  s.question = {5};
  s.answer = 6;
  const auto t0 = original.forward(s);
  const auto t1 = loaded.forward(s);
  EXPECT_EQ(t0.logits, t1.logits);
  EXPECT_EQ(t0.prediction, t1.prediction);
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOPE garbage";
  EXPECT_THROW((void)load_model(buffer), std::runtime_error);
}

/// `bytes` with the T at `at` replaced by `value`.
template <typename T>
std::string with_value(std::string bytes, std::size_t at, T value) {
  char raw[sizeof value];
  std::memcpy(raw, &value, sizeof value);
  bytes.replace(at, sizeof value, raw, sizeof value);
  return bytes;
}

TEST(Serialize, TruncatedPayloadRejected) {
  // Every malformed file must throw std::runtime_error: no other
  // exception, no allocation for what the header merely claims, and no
  // model whose matrices disagree with its header.
  const MemN2N original = make_model();
  std::stringstream buffer;
  save_model(buffer, original);
  const std::string bytes = buffer.str();
  // After "MANN" and a u32 version come vocab_size, embedding_dim, hops
  // and max_memory (u64 each), then each matrix as u64 rows, u64 cols and
  // its floats: embedding_a from offset 40, embedding_c after it.
  constexpr std::size_t kEmbeddingDim = 16;
  constexpr std::size_t kEmbeddingA = 40;
  const std::size_t embedding_c = kEmbeddingA + 16 + 12 * 5 * sizeof(float);
  // embedding_c one row short, the file still self-consistent.
  std::string short_c = with_value<std::uint64_t>(bytes, embedding_c, 11);
  short_c.erase(embedding_c + 16, 5 * sizeof(float));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();

  const std::vector<std::pair<const char*, std::string>> bad = {
      {"truncated", bytes.substr(0, bytes.size() / 2)},
      {"1e6 x 1e6 matrix header",
       with_value<std::uint64_t>(
           with_value<std::uint64_t>(bytes, kEmbeddingA, 1'000'000),
           kEmbeddingA + 8, 1'000'000)},
      {"embedding_dim 0", with_value<std::uint64_t>(bytes, kEmbeddingDim, 0)},
      {"embedding_dim 6", with_value<std::uint64_t>(bytes, kEmbeddingDim, 6)},
      {"short embedding_c", short_c},
      {"NaN weight", with_value(bytes, kEmbeddingA + 16, nan)},
      {"infinite weight", with_value(bytes, embedding_c + 16, inf)},
  };
  for (const auto& [what, file] : bad) {
    SCOPED_TRACE(what);
    std::stringstream in(file);
    EXPECT_THROW((void)load_model(in), std::runtime_error);
  }
}

TEST(Serialize, FileRoundTrip) {
  const MemN2N original = make_model(21);
  const std::string path =
      ::testing::TempDir() + "/mann_serialize_test.bin";
  save_model_file(path, original);
  const MemN2N loaded = load_model_file(path);
  EXPECT_EQ(loaded.params().w_o, original.params().w_o);
}

TEST(Serialize, SaveReplacesTheFileWithoutTouchingOpenReaders) {
  // A loader that opened the file before a save must still read the old
  // model whole: saving writes a new file and renames it into place
  // instead of truncating the one the loader holds.
  const MemN2N first = make_model(21);
  ModelConfig other = first.config();
  other.vocab_size = 30;
  numeric::Rng rng(22);
  const MemN2N second(other, rng);
  const std::string path = ::testing::TempDir() + "/mann_serialize_swap.bin";
  save_model_file(path, first);
  std::ifstream reader(path, std::ios::binary);
  save_model_file(path, second);

  const MemN2N held = load_model(reader);
  EXPECT_EQ(held.config().vocab_size, first.config().vocab_size);
  EXPECT_EQ(held.params().w_o, first.params().w_o);
  EXPECT_EQ(load_model_file(path).config().vocab_size, 30U);
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(path).parent_path())) {
    EXPECT_EQ(entry.path().filename().string().find("mann_serialize_swap.bin."),
              std::string::npos)
        << "temporary file left behind: " << entry.path();
  }
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW((void)load_model_file("/nonexistent/path/model.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace mann::model
