// Minimal streaming JSON emitter for machine-readable bench output.
//
// TableWriter covers flat CSV series; the churn-soak bench emits nested
// per-topology/per-epoch records, which CSV cannot express without
// denormalizing. This writer produces standard JSON with no dependencies:
// a begin/end nesting API with automatic comma placement and string
// escaping. It does NOT validate that keys appear only inside objects —
// callers pair begin/end correctly.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <vector>

namespace psc::bench {

/// Streaming JSON writer with 2-space indentation.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  /// Containers. The keyed forms are for members of an object; arrays
  /// are always members.
  void begin_object() {
    comma_and_indent();
    open('{');
  }
  void begin_object(std::string_view key) {
    key_prefix(key);
    open('{');
  }
  void end_object() { close('}'); }
  void begin_array(std::string_view key) {
    key_prefix(key);
    open('[');
  }
  void end_array() { close(']'); }

  /// Object members.
  void member(std::string_view key, std::string_view value) {
    key_prefix(key);
    write_escaped(value);
  }
  void member(std::string_view key, const char* value) {
    member(key, std::string_view(value));
  }
  void member(std::string_view key, double value) {
    key_prefix(key);
    write_double(value);
  }
  void member(std::string_view key, std::int64_t value) {
    key_prefix(key);
    out_ << value;
  }
  void member(std::string_view key, std::uint64_t value) {
    key_prefix(key);
    out_ << value;
  }
  void member(std::string_view key, bool value) {
    key_prefix(key);
    out_ << (value ? "true" : "false");
  }
  /// Disambiguates the integer overloads for any integral argument.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void member(std::string_view key, T value) {
    if constexpr (std::is_signed_v<T>) {
      member(key, static_cast<std::int64_t>(value));
    } else {
      member(key, static_cast<std::uint64_t>(value));
    }
  }

 private:
  std::ostream& out_;
  /// One flag per open container: whether it already has an element.
  std::vector<bool> stack_;

  void open(char bracket) {
    out_ << bracket;
    stack_.push_back(false);
  }

  void close(char bracket) {
    const bool had_members = !stack_.empty() && stack_.back();
    if (!stack_.empty()) stack_.pop_back();
    if (had_members) {
      out_ << '\n';
      for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
    }
    out_ << bracket;
  }

  void comma_and_indent() {
    if (!stack_.empty()) {
      if (stack_.back()) out_ << ',';
      stack_.back() = true;
      out_ << '\n';
      for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
    }
  }

  void key_prefix(std::string_view key) {
    comma_and_indent();
    write_escaped(key);
    out_ << ": ";
  }

  void write_escaped(std::string_view text) {
    out_ << '"';
    for (const char c : text) {
      switch (c) {
        case '"': out_ << "\\\""; break;
        case '\\': out_ << "\\\\"; break;
        case '\n': out_ << "\\n"; break;
        case '\t': out_ << "\\t"; break;
        case '\r': out_ << "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  void write_double(double number) {
    if (!std::isfinite(number)) {
      out_ << "null";  // JSON has no Inf/NaN
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", number);
    out_ << buf;
  }
};

}  // namespace psc::bench
