#include "core/multistart.hpp"

#include "core/parallel.hpp"

namespace mcopt::core {

// The restart loop and its fold live once, in core/parallel.cpp; on one
// thread every restart runs inline on `problem`.
MultistartResult multistart(Problem& problem, const Runner& runner,
                            const MultistartOptions& options,
                            util::Rng& rng) {
  ParallelMultistartOptions sequential;
  sequential.multistart = options;
  sequential.num_threads = 1;
  return parallel_multistart(problem, runner, sequential, rng);
}

}  // namespace mcopt::core
