#include "support/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/check.h"

namespace aces::support {

std::string format_g6(double v) {
  // std::to_chars is printf without the locale: the decimal point is '.'.
  char buf[32];  // "-1.23457e+308" is the longest
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  return std::string(buf, r.ptr);
}

JsonWriter& JsonWriter::open(char open, char close, int indent) {
  item();
  out_ += open;
  stack_.push_back(Frame{close, indent});
  return *this;
}

JsonWriter& JsonWriter::end() {
  ACES_CHECK_MSG(!stack_.empty() && !stack_.back().after_key,
                 "JsonWriter: end() with no open container or a dangling key");
  const Frame f = stack_.back();
  stack_.pop_back();
  if (f.has_items && f.indent >= 0) {
    newline(f.indent - 2);
  }
  out_ += f.close;
  if (stack_.empty()) {
    out_ += '\n';
  }
  return *this;
}

JsonWriter& JsonWriter::line(int indent) {
  ACES_CHECK_MSG(!stack_.empty(), "JsonWriter: line() outside a container");
  stack_.back().pending_line = indent;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  ACES_CHECK_MSG(!stack_.empty() && stack_.back().close == '}' &&
                     !stack_.back().after_key,
                 "JsonWriter: a key belongs directly inside an object");
  separator(stack_.back());
  quoted(k);
  out_ += ": ";
  stack_.back().after_key = true;
  return *this;
}

void JsonWriter::item() {
  if (stack_.empty()) {
    ACES_CHECK_MSG(out_.empty(), "JsonWriter: one root value per document");
    return;
  }
  Frame& f = stack_.back();
  if (f.close == ']') {
    separator(f);
    return;
  }
  ACES_CHECK_MSG(f.after_key, "JsonWriter: an object member needs a key");
  f.after_key = false;
}

void JsonWriter::separator(Frame& f) {
  if (f.has_items) {
    out_ += ',';
  }
  if (f.pending_line >= 0) {
    newline(f.pending_line);
    f.pending_line = -1;
  } else if (f.indent >= 0) {
    newline(f.indent);
  } else if (f.has_items && f.indent != kPacked) {
    out_ += ' ';
  }
  f.has_items = true;
}

void JsonWriter::newline(int indent) {
  out_ += '\n';
  out_.append(static_cast<std::size_t>(std::max(indent, 0)), ' ');
}

JsonWriter& JsonWriter::raw(std::string_view text) {
  item();
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  item();
  quoted(s);
  return *this;
}

void JsonWriter::quoted(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += ch;
    } else if (c < 0x20) {
      out_ += "\\u00";
      out_ += kHex[c >> 4];
      out_ += kHex[c & 0xF];
    } else {
      out_ += ch;  // UTF-8 passes through
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::value(double v) {
  return raw(std::isfinite(v) ? format_g6(v) : "null");
}

void write_json_file(const char* path, const JsonWriter& w) {
  const std::string where = std::string("JSON output ") + path;
  std::FILE* f = std::fopen(path, "w");
  ACES_CHECK_MSG(f != nullptr, "cannot open " + where);
  const std::string& text = w.str();
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  ACES_CHECK_MSG(written && closed, "cannot write " + where);
}

}  // namespace aces::support
