// Thread census of the test process, for tests that assert a call starts no
// thread of its own.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <system_error>

namespace evvo {

/// Threads of this process (entries of /proc/self/task); std::nullopt where
/// /proc is not available.
inline std::optional<std::size_t> os_thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  std::size_t count = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return std::nullopt;
    ++count;
  }
  return count;
}

}  // namespace evvo
