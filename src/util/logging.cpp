#include "util/logging.hpp"

#include <cstdio>

namespace cq {

namespace {
const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

namespace detail {
void log_emit(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), msg.c_str());
}
}  // namespace detail

}  // namespace cq
