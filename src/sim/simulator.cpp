#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>

namespace mann::sim {

void Simulator::throw_watchdog(const char* what) {
  throw std::runtime_error(std::string("Simulator: watchdog expired — ") +
                           what);
}

}  // namespace mann::sim
