#include "serve/server.hpp"

#include <stdexcept>
#include <utility>

#include "serve/session.hpp"

namespace mann::serve {

Server::Server(ServerConfig config, std::vector<ServedModel> models)
    : config_(std::move(config)), models_(std::move(models)) {
  if (models_.empty()) {
    throw std::invalid_argument("Server: no models to serve");
  }
  for (const ServedModel& m : models_) {
    if (m.stories.empty()) {
      throw std::invalid_argument("Server: model with empty corpus");
    }
  }
}

ServingReport Server::run(std::size_t total_requests) const {
  SessionOptions options;
  options.total_requests = total_requests;
  // The closed-loop contract: skip the completion outbox nobody will
  // poll, and drain from the start so leftovers flush the moment the
  // generator runs dry.
  options.collect_completions = false;
  ServerSession session(config_, models_, options);
  session.drain();
  (void)session.step(0);
  return session.finalize();
}

}  // namespace mann::serve
