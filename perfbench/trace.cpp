#include "trace.hpp"

#include <chrono>

namespace perfbench {
namespace {

struct Origin {
  std::chrono::steady_clock::time_point mono = std::chrono::steady_clock::now();
  std::chrono::system_clock::time_point wall = std::chrono::system_clock::now();
};

const Origin& origin() {
  static const Origin o;
  return o;
}

}  // namespace

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin().mono)
          .count());
}

std::uint64_t mono_origin_unix_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          origin().wall.time_since_epoch())
          .count());
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::move(name);
  s.id = next_id_++;
  s.parent = parent;
  s.start_ns = mono_ns();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id, std::string args) {
  if (!enabled_ || id == 0) return;
  const std::uint64_t now = mono_ns();
  // Spans close in LIFO order, so the open one is near the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = now;
      it->args = std::move(args);
      return;
    }
  }
}

void Tracer::add(Span s) {
  if (!enabled_) return;
  s.id = next_id_++;
  spans_.push_back(std::move(s));
}

std::string Tracer::to_json() const {
  std::string out = "[";
  for (const Span& s : spans_) {
    if (out.size() > 1) out += ", ";
    const std::uint64_t end = s.end_ns < s.start_ns ? s.start_ns : s.end_ns;
    out += "{\"name\": \"" + s.name + "\", \"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(end) +
           ", \"lane\": " + std::to_string(s.lane) + ", \"args\": {" +
           s.args + "}}";
  }
  return out + "]";
}

}  // namespace perfbench
