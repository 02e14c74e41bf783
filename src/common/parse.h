// Strict numeric parsing for command-line values, shared by sndpsim, the
// examples and the bench binaries.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace sndp {

// The whole of `text` as a T, or `usage(argv0)` — which prints the caller's
// usage text and exits 2.  Garbage, trailing characters, a sign on an
// unsigned value, overflow and non-finite floats are all refused.
template <typename T>
T number_or_usage(std::string_view text, void (*usage)(const char*), const char* argv0) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    usage(argv0);
    std::exit(2);  // `usage` exits itself; this keeps the refusal certain
  }
  return value;
}

}  // namespace sndp
