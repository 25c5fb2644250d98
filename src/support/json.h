// support::JsonWriter — the one JSON serializer of the library and benches.
//
// A streaming writer that owns everything a report needs to be valid,
// diffable JSON: string escaping, number formats, separators, nesting and
// line layout. Callers only say what to write and where a line breaks:
//
//   JsonWriter w;
//   w.begin_object(2).field("bench", "campaign");  // a member per line
//   w.key("counts").begin_array(JsonWriter::kPacked).values(counts);
//   w.end().end();  // the array, then the object
//   write_json_file(path, w);
//
// Layout: a container opened with an indent >= 0 starts each of its items
// on a new line at that indent and, when it holds any item, closes on a
// new line two spaces less; kInline containers separate items with ", ",
// kPacked arrays with "," alone. line(n) breaks before the next item of the
// current container only. Closing the outermost container ends the
// document with a newline.
//
// Numbers: integers are exact; doubles use printf's %.6g (non-finite
// values, which JSON cannot carry, are written as null).
#ifndef ACES_SUPPORT_JSON_H
#define ACES_SUPPORT_JSON_H

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace aces::support {

// printf's %.6g: the writer's form of a double, also used where the same
// figure appears in plain text (campaign violation reasons).
[[nodiscard]] std::string format_g6(double v);

class JsonWriter {
 public:
  static constexpr int kInline = -1;
  static constexpr int kPacked = -2;  // arrays only: [1,2,3]

  JsonWriter& begin_object(int indent = kInline) {
    return open('{', '}', indent);
  }
  JsonWriter& begin_array(int indent = kInline) {
    return open('[', ']', indent);
  }
  JsonWriter& end();  // closes the innermost open container

  // The next item of the current container starts on a new line.
  JsonWriter& line(int indent);

  // An object member's key; the member's value comes next.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(double v);
  template <std::integral T>
  JsonWriter& value(T v) {
    if constexpr (std::same_as<T, bool>) {
      return raw(v ? "true" : "false");
    } else {
      return raw(std::to_string(v));
    }
  }

  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }
  // Every element of `items`, each as a value.
  template <class Range>
  JsonWriter& values(const Range& items) {
    for (const auto& v : items) {
      value(v);
    }
    return *this;
  }

  // The text written so far.
  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  struct Frame {
    char close;
    int indent;
    bool has_items = false;
    bool after_key = false;  // a key was written, its value comes next
    int pending_line = -1;   // line() requested before the next item
  };

  void item();  // before a value: its separator, or the key's ": "
  void separator(Frame& f);
  void quoted(std::string_view s);  // a JSON string, escaped
  JsonWriter& raw(std::string_view text);
  JsonWriter& open(char open, char close, int indent);
  void newline(int indent);

  std::string out_;
  std::vector<Frame> stack_;
};

// Writes the document to `path`; every step of the file output is checked
// (a full disk or unwritable path throws instead of leaving a truncated
// artifact behind).
void write_json_file(const char* path, const JsonWriter& w);

}  // namespace aces::support

#endif  // ACES_SUPPORT_JSON_H
