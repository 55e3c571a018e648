#include "accel/control.hpp"

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
  if (upstream != nullptr) {
    upstream->couple_upload_drain(fifo_in_);
  }
}

void ControlModule::refuse(const char* what) { throw std::logic_error(what); }

}  // namespace mann::accel
