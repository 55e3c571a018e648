// Binary serialization of trained models.
//
// The accelerator receives "trained model parameters ... from a host
// computer" (Fig. 1); this is the artifact format that crosses that
// boundary, and it also lets examples/benches cache trained models.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "model/memn2n.hpp"

namespace mann::model {

/// Writes config + parameters. Throws std::runtime_error on stream failure.
void save_model(std::ostream& out, const MemN2N& model);
/// Replaces `path` atomically (temporary file in the same directory, then
/// rename), so concurrent loaders never see a partly written model.
void save_model_file(const std::string& path, const MemN2N& model);

/// Replaces `path` with `bytes` the way save_model_file does: concurrent
/// readers see the old file or the complete new one, and a failed write
/// leaves the old file in place. Throws std::runtime_error on failure.
void write_file_atomically(const std::string& path, std::string_view bytes);

/// Reads a model back. Throws std::runtime_error on malformed input: a
/// zero dimension, a matrix whose shape differs from the header's, or a
/// payload longer than what is left of `in` (checked before allocating,
/// so `in` must be seekable).
[[nodiscard]] MemN2N load_model(std::istream& in);
[[nodiscard]] MemN2N load_model_file(const std::string& path);

}  // namespace mann::model
