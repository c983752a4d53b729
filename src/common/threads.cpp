#include "common/threads.h"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace harmony {

unsigned usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace harmony
