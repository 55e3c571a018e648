#include "accel/control.hpp"

#include <algorithm>
#include <stdexcept>

namespace mann::accel {

ControlModule::ControlModule(AcceleratorState& state,
                             sim::Fifo<StreamWord>& fifo_in,
                             sim::Fifo<StreamWord>& cmd_fifo,
                             HostLinkModule* upstream)
    : Module("CONTROL"),
      state_(state),
      fifo_in_(fifo_in),
      cmd_fifo_(cmd_fifo),
      upstream_(upstream),
      model_words_(state.program.model_words()) {
  if (upstream == nullptr) {
    return;
  }
  if (upstream->model_words() !=
      model_words_ - std::min(state.model_words_seen, model_words_)) {
    throw std::invalid_argument(
        "ControlModule: the coupled link must upload the model words left "
        "to store");
  }
  upstream->couple_drain(fifo_in_);
}

const HostLinkModule* ControlModule::couple_sink(
    const sim::Fifo<StreamWord>& cmd_fifo, const sim::Cycle& countdown,
    sim::Cycle flush_cycles) {
  if (&cmd_fifo != &cmd_fifo_) {
    throw std::invalid_argument(
        "ControlModule: the coupled sink must pop this module's CMD_FIFO");
  }
  if (upstream_ != nullptr) {
    upstream_->couple_sink(state_, cmd_fifo_, countdown, flush_cycles);
  }
  return upstream_;
}

void ControlModule::refuse(const char* what) { throw std::logic_error(what); }

}  // namespace mann::accel
