// Minimal leveled logger. Single-threaded by design (target machine has one
// core); writes to stderr so experiment tables on stdout stay machine-readable.
#pragma once

#include <sstream>
#include <string>

namespace cq {

enum class LogLevel { kInfo, kWarn, kError };

namespace detail {
void log_emit(LogLevel level, const std::string& msg);

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_emit(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace cq

#define CQ_LOG(level) ::cq::detail::LogLine(::cq::LogLevel::level)
#define CQ_LOG_INFO CQ_LOG(kInfo)
#define CQ_LOG_WARN CQ_LOG(kWarn)
#define CQ_LOG_ERROR CQ_LOG(kError)
