// FixedChars: text formatted into a fixed-capacity buffer on the stack.
//
// The catalog formats a content string and a link per file, and the user
// population a dotted quad per user: millions of short strings at paper
// scale. Built through std::to_string and operator+, each costs a handful
// of heap temporaries; built here, the only allocation left is the final
// std::string the caller keeps (none at all when it fits the small-string
// buffer). Numbers are written by std::to_chars, which formats an integer
// exactly as std::to_string does. An append past the capacity throws
// std::length_error instead of writing out of bounds.
#pragma once

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace odr::util {

template <std::size_t N>
class FixedChars {
 public:
  FixedChars& text(std::string_view s) {
    if (s.size() > N - size_) throw std::length_error("FixedChars: full");
    std::memcpy(buf_.data() + size_, s.data(), s.size());
    size_ += s.size();
    return *this;
  }

  FixedChars& number(std::uint64_t v) {
    const auto [end, ec] =
        std::to_chars(buf_.data() + size_, buf_.data() + N, v);
    if (ec != std::errc()) throw std::length_error("FixedChars: full");
    size_ = static_cast<std::size_t>(end - buf_.data());
    return *this;
  }

  std::string_view view() const { return {buf_.data(), size_}; }

 private:
  std::array<char, N> buf_;
  std::size_t size_ = 0;
};

}  // namespace odr::util
