#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, Kind kind)
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  index_ = static_cast<int>(tracer_->spans_.size());
  Span s;
  s.name = name;
  s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  s.kind = kind;
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_.push_back(index_);
  // Start last, so the bookkeeping above is not inside the span.
  tracer_->spans_[static_cast<std::size_t>(index_)].start = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  tracer_->spans_[static_cast<std::size_t>(index_)].end = Clock::now();
  tracer_->open_.pop_back();
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, Kind kind) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = open_.empty() ? -1 : open_.back();
  s.kind = kind;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start, s.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    if (s.kind != Kind::rep) {
      continue;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += 1e3 * (seconds_between(s.start, s.end) - child_s[k]);
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
  for (std::size_t k = 0; k < meta.size(); ++k) {
    std::fprintf(f, "%s\n  \"%s\": \"%s\"", k == 0 ? "" : ",",
                 json_escape(meta[k].first).c_str(),
                 json_escape(meta[k].second).c_str());
  }
  std::fprintf(f, "\n},\n\"traceEvents\": [");
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    const double ts = 1e6 * seconds_between(origin_, s.start);
    const double dur = 1e6 * seconds_between(s.start, s.end);
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}",
                 k == 0 ? "" : ",", json_escape(s.name).c_str(),
                 s.kind == Kind::rep ? "rep" : "probe", ts, dur, k, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void finish_trace(const Tracer& tracer, const Options& opt, Outcome& out) {
  for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", ms);
    out.note("self_ms." + layer, buf);
  }
  if (opt.trace_dir.empty()) {
    return;
  }
  const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".trace.json";
  out.checks.expect(tracer.write_chrome(path, out.notes),
                    "trace written to " + path);
  out.note("trace_file", path);
}

}  // namespace perfbench
