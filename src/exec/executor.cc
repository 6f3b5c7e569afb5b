#include "exec/executor.hh"

#include "exec/sim_executor.hh"
#include "exec/threaded_executor.hh"

namespace hydra::exec {

std::unique_ptr<Executor>
makeExecutor(ExecutorKind kind)
{
    switch (kind) {
      case ExecutorKind::Threaded:
        return std::make_unique<ThreadedExecutor>();
      case ExecutorKind::Sim:
        break;
    }
    return std::make_unique<SimExecutor>();
}

} // namespace hydra::exec
