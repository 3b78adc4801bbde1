#include "check/backend.hpp"

namespace check {

exec::BackendRun run_mw(const Scenario& scenario) {
  return exec::make_backend("mw")->run(scenario.config);
}

exec::BackendRun run_hagerup(const Scenario& scenario) {
  return exec::make_backend("hagerup")->run(scenario.config);
}

exec::BackendRun run_runtime(const Scenario& scenario, std::size_t n_cap) {
  exec::BackendOptions options;
  options.runtime_task_cap = n_cap;
  options.runtime_max_threads = 8;
  return exec::make_backend("runtime", options)->run(scenario.config);
}

}  // namespace check
