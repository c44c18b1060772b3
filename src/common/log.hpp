// Minimal leveled logging.
//
// The runtime makes silent policy decisions (shrinking a chunk size to meet
// a memory limit, re-chunking adaptively); at Level::Debug those decisions
// become visible. The sink is replaceable
// so tests can capture output; the default sink is stderr. Logging is
// process-global and not thread-safe by design — the simulator is
// single-threaded.
#pragma once

#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace gpupipe {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Off = 3 };

/// Parses a GPUPIPE_LOG-style level name ("debug"/"info"/"warn"/"off");
/// nullopt for anything else.
inline std::optional<LogLevel> parse_log_level(std::string_view s) {
  if (s == "debug") return LogLevel::Debug;
  if (s == "info") return LogLevel::Info;
  if (s == "warn") return LogLevel::Warn;
  if (s == "off") return LogLevel::Off;
  return std::nullopt;
}

namespace detail {
struct LogState {
  LogLevel level = LogLevel::Warn;
  std::function<void(LogLevel, const std::string&)> sink;

  // GPUPIPE_LOG overrides the default threshold at startup, mirroring
  // GPUPIPE_FORCE_HAZARDS; unknown values are ignored (the first log_warn
  // would be too early to see anyway).
  LogState() {
    if (const char* env = std::getenv("GPUPIPE_LOG")) {
      if (auto parsed = parse_log_level(env)) level = *parsed;
    }
  }
};
inline LogState& log_state() {
  static LogState state;
  return state;
}
}  // namespace detail

/// Sets the global threshold; messages below it are dropped.
inline void set_log_level(LogLevel level) { detail::log_state().level = level; }
inline LogLevel log_level() { return detail::log_state().level; }

/// Replaces the sink (pass {} to restore stderr).
inline void set_log_sink(std::function<void(LogLevel, const std::string&)> sink) {
  detail::log_state().sink = std::move(sink);
}

inline const char* to_string(LogLevel l) {
  switch (l) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Off: return "off";
  }
  return "?";
}

namespace detail {
inline void emit(LogLevel level, const std::string& msg) {
  auto& st = log_state();
  if (level < st.level) return;
  if (st.sink) {
    st.sink(level, msg);
  } else {
    std::cerr << "[gpupipe " << to_string(level) << "] " << msg << "\n";
  }
}
}  // namespace detail

/// Streams all arguments into one message at the given level.
template <typename... Args>
void log_at(LogLevel level, Args&&... args) {
  if (level < detail::log_state().level) return;  // cheap early out
  std::ostringstream os;
  (os << ... << args);
  detail::emit(level, os.str());
}

template <typename... Args>
void log_debug(Args&&... args) {
  log_at(LogLevel::Debug, std::forward<Args>(args)...);
}
template <typename... Args>
void log_info(Args&&... args) {
  log_at(LogLevel::Info, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(Args&&... args) {
  log_at(LogLevel::Warn, std::forward<Args>(args)...);
}

}  // namespace gpupipe
