#include "accel/compiler.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mann::accel {

namespace {

void require(bool ok, const char* what) {
  if (!ok) {
    throw std::invalid_argument(std::string("DeviceProgram: ") + what);
  }
}

}  // namespace

void validate_program(const DeviceProgram& program) {
  const std::size_t v = program.vocab_size;
  const std::size_t e = program.embedding_dim;
  require(v >= 1, "vocab_size must be at least 1");
  require(e >= 1, "embedding_dim must be at least 1");
  require(program.hops >= 1, "hops must be at least 1");
  require(program.max_memory >= 1, "max_memory must be at least 1");
  for (const FxMatrix* m : {&program.emb_a, &program.emb_c, &program.emb_q,
                            &program.w_o}) {
    require(m->rows() == v && m->cols() == e,
            "embedding tables and W_o must be vocab_size x embedding_dim");
  }
  require(program.w_r.rows() == e && program.w_r.cols() == e,
          "W_r must be embedding_dim x embedding_dim");
  if (program.thresholds.empty() && program.probe_order.empty()) {
    return;
  }
  require(program.thresholds.size() == v,
          "ITH thresholds must have vocab_size entries");
  require(program.probe_order.size() == v,
          "ITH probe_order must have vocab_size entries");
  std::vector<bool> seen(v, false);
  for (const std::int32_t cls : program.probe_order) {
    require(cls >= 0 && static_cast<std::size_t>(cls) < v &&
                !seen[static_cast<std::size_t>(cls)],
            "ITH probe_order must be a permutation of the classes");
    seen[static_cast<std::size_t>(cls)] = true;
  }
}

std::size_t DeviceProgram::model_words() const noexcept {
  const std::size_t weight_words = emb_a.size() + emb_c.size() +
                                   emb_q.size() + w_r.size() + w_o.size();
  const std::size_t ith_words = thresholds.size() + probe_order.size();
  return weight_words + ith_words;
}

DeviceProgram compile_model(const model::MemN2N& model,
                            const core::InferenceThresholding* ith) {
  const model::ModelConfig& cfg = model.config();
  const model::Parameters& p = model.params();

  DeviceProgram prog;
  prog.vocab_size = cfg.vocab_size;
  prog.embedding_dim = cfg.embedding_dim;
  prog.hops = cfg.hops;
  prog.max_memory = cfg.max_memory;
  prog.emb_a = quantize(p.embedding_a);
  prog.emb_c = quantize(p.embedding_c);
  prog.emb_q = quantize(p.embedding_q);
  prog.w_r = quantize(p.w_r);
  prog.w_o = quantize(p.w_o);

  if (ith != nullptr) {
    prog.thresholds.reserve(cfg.vocab_size);
    for (const float theta : ith->thresholds()) {
      prog.thresholds.push_back(std::isfinite(theta) ? Fx::from_float(theta)
                                                     : Fx::max());
    }
    prog.probe_order.reserve(cfg.vocab_size);
    for (const std::size_t cls : ith->probe_order()) {
      prog.probe_order.push_back(static_cast<std::int32_t>(cls));
    }
  }
  return prog;
}

}  // namespace mann::accel
