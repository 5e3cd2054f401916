#include "harness/scenario_dsl.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/protocol.hpp"

namespace rr::harness {
namespace {

constexpr adversary::StrategyKind kAllStrategies[] = {
    adversary::StrategyKind::Silent,      adversary::StrategyKind::Amnesiac,
    adversary::StrategyKind::Forger,      adversary::StrategyKind::Accuser,
    adversary::StrategyKind::Equivocator, adversary::StrategyKind::Stagger,
    adversary::StrategyKind::Collude,     adversary::StrategyKind::Random,
    adversary::StrategyKind::StaleReplay,
};

// -------------------------------------------------------------------------
// Low-level token parsing. Every helper returns false (without touching the
// output) on malformed input; the caller owns the error message.
// -------------------------------------------------------------------------

bool parse_u64(const std::string& v, std::uint64_t* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = x;
  return true;
}

bool parse_int(const std::string& v, int* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<int>(x);
  return true;
}

/// Times: integer with an optional ns/us/ms/s suffix; bare means ns (the
/// backend clock unit).
bool parse_time(const std::string& v, Time* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || end == v.c_str()) return false;
  const std::string suffix(end);
  std::uint64_t scale = 1;
  if (suffix == "" || suffix == "ns") scale = 1;
  else if (suffix == "us") scale = 1'000;
  else if (suffix == "ms") scale = 1'000'000;
  else if (suffix == "s") scale = 1'000'000'000;
  else return false;
  *out = x * scale;
  return true;
}

/// Signed time offsets (clock skew): optional leading '-', same suffixes.
bool parse_offset(const std::string& v, std::int64_t* out) {
  std::string body = v;
  bool neg = false;
  if (!body.empty() && (body[0] == '-' || body[0] == '+')) {
    neg = body[0] == '-';
    body.erase(0, 1);
  }
  Time t = 0;
  if (!parse_time(body, &t)) return false;
  const auto mag = static_cast<std::int64_t>(t);
  *out = neg ? -mag : mag;
  return true;
}

/// Wall-clock deadlines: integer milliseconds, optional ms/s suffix.
bool parse_wall_ms(const std::string& v, std::uint64_t* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || end == v.c_str()) return false;
  const std::string suffix(end);
  if (suffix == "" || suffix == "ms") *out = x;
  else if (suffix == "s") *out = x * 1'000;
  else return false;
  return true;
}

/// Rates and factors: a double, with an optional trailing 'x' ("8x").
bool parse_rate(const std::string& v, double* out) {
  if (v.empty()) return false;
  std::string body = v;
  if (body.back() == 'x') body.pop_back();
  if (body.empty()) return false;
  char* end = nullptr;
  const double x = std::strtod(body.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = x;
  return true;
}

/// Comma-separated object indices; the word "all" means the empty list
/// (= every channel, for link-fault scopes).
bool parse_objs(const std::string& v, std::vector<int>* out) {
  out->clear();
  if (v == "all") return true;
  std::size_t start = 0;
  while (start <= v.size()) {
    const auto comma = v.find(',', start);
    int x = 0;
    if (!parse_int(v.substr(start, comma - start), &x)) return false;
    out->push_back(x);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out->empty();
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

/// The key=value pairs of a directive line (tokens after the first `skip`).
struct KvArgs {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::string bad;  ///< first token that was not key=value; empty when none

  explicit KvArgs(const std::vector<std::string>& tokens, std::size_t skip) {
    for (std::size_t i = skip; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos || eq == 0) {
        if (bad.empty()) bad = tokens[i];
        continue;
      }
      pairs.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
    }
  }

  [[nodiscard]] const std::string* find(const std::string& key) const {
    for (const auto& [k, v] : pairs) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// First key not in `allowed`; empty when all keys are known.
  [[nodiscard]] std::string unknown_key(
      std::initializer_list<const char*> allowed) const {
    for (const auto& [k, v] : pairs) {
      bool known = false;
      for (const char* a : allowed) known = known || k == a;
      if (!known) return k;
    }
    return "";
  }
};

std::string fmt_double(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  // Trim to the shortest representation that still round-trips exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, x);
    if (std::strtod(probe, nullptr) == x) return probe;
  }
  return buf;
}

const char* semantics_name(Semantics s) {
  switch (s) {
    case Semantics::Safe: return "safe";
    case Semantics::Regular: return "regular";
    case Semantics::Atomic: return "atomic";
  }
  return "?";
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_' && c != '.') {
      return false;
    }
  }
  return true;
}

/// Resolves the shared at=/dur=/from=/to= window keys (from/to are
/// synonyms: from == at, to == at + dur). Returns an error string or "".
std::string parse_window(const KvArgs& kv, Time* at, Time* dur) {
  const auto* at_v = kv.find("at");
  const auto* from_v = kv.find("from");
  const auto* dur_v = kv.find("dur");
  const auto* to_v = kv.find("to");
  if (at_v != nullptr && from_v != nullptr) return "both at= and from= given";
  if (dur_v != nullptr && to_v != nullptr) return "both dur= and to= given";
  const auto* start = at_v != nullptr ? at_v : from_v;
  if (start != nullptr && !parse_time(*start, at)) {
    return "bad time '" + *start + "'";
  }
  if (dur_v != nullptr && !parse_time(*dur_v, dur)) {
    return "bad time '" + *dur_v + "'";
  }
  if (to_v != nullptr) {
    Time end = 0;
    if (!parse_time(*to_v, &end)) return "bad time '" + *to_v + "'";
    if (end < *at) return "to= before the window start";
    *dur = end - *at;
  }
  return "";
}

}  // namespace

ScenarioParseResult parse_scenario(std::string_view text) {
  ScenarioParseResult result;
  Scenario& s = result.scenario;
  bool saw_scenario = false;
  // Source line of each fault event, so the deferred semantic validation
  // (deferred because `budget` may legally come after `fault` lines) can
  // still name the offending line instead of the end of the file.
  std::vector<int> event_lines;

  const auto fail = [&result](int line, const std::string& msg) {
    result.ok = false;
    result.error = "line " + std::to_string(line) + ": " + msg;
    return result;
  };

  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string line(text.substr(pos, nl - pos));
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "scenario") {
      if (saw_scenario) return fail(line_no, "duplicate scenario line");
      if (tokens.size() < 3) {
        return fail(line_no, "want: scenario <protocol> <backend> [seed=N] "
                             "[name=NAME]");
      }
      const auto protocol = protocol_from_name(tokens[1]);
      if (!protocol) return fail(line_no, "unknown protocol '" + tokens[1] +
                                              "'");
      const auto backend = backend_from_name(tokens[2]);
      if (!backend) return fail(line_no, "unknown backend '" + tokens[2] +
                                             "' (" + backend_names() + ")");
      s.protocol = *protocol;
      s.backend = *backend;
      const KvArgs kv(tokens, 3);
      if (!kv.bad.empty()) return fail(line_no, "stray token '" + kv.bad +
                                                    "'");
      if (const auto k = kv.unknown_key({"seed", "name"}); !k.empty()) {
        return fail(line_no, "unknown key '" + k + "'");
      }
      if (const auto* v = kv.find("seed")) {
        if (!parse_u64(*v, &s.seed)) return fail(line_no, "bad seed");
      }
      if (const auto* v = kv.find("name")) {
        if (!valid_name(*v)) {
          return fail(line_no, "bad name (want [A-Za-z0-9._-]+)");
        }
        s.name = *v;
      }
      saw_scenario = true;
      continue;
    }
    if (!saw_scenario) {
      return fail(line_no, "the scenario line must come first");
    }

    if (directive == "template") {
      if (tokens.size() != 2) return fail(line_no, "want: template <name>");
      const auto t = fault_template_from_name(tokens[1]);
      if (!t) return fail(line_no, "unknown template '" + tokens[1] + "'");
      s.tmpl = *t;
    } else if (directive == "budget") {
      const KvArgs kv(tokens, 1);
      if (const auto k = kv.unknown_key({"t", "b", "readers"}); !k.empty()) {
        return fail(line_no, "unknown key '" + k + "'");
      }
      if (const auto* v = kv.find("t")) {
        if (!parse_int(*v, &s.t) || s.t < 0) return fail(line_no, "bad t");
      }
      if (const auto* v = kv.find("b")) {
        if (!parse_int(*v, &s.b) || s.b < 0) return fail(line_no, "bad b");
      }
      if (const auto* v = kv.find("readers")) {
        if (!parse_int(*v, &s.readers) || s.readers < 1) {
          return fail(line_no, "bad readers");
        }
      }
    } else if (directive == "workload") {
      const KvArgs kv(tokens, 1);
      if (const auto k = kv.unknown_key({"writes", "reads", "write_gap",
                                         "read_gap", "shards", "arrival",
                                         "clients", "think", "horizon",
                                         "write_frac", "window"});
          !k.empty()) {
        return fail(line_no, "unknown key '" + k + "'");
      }
      if (const auto* v = kv.find("writes")) {
        if (!parse_int(*v, &s.writes) || s.writes < 0) {
          return fail(line_no, "bad writes");
        }
      }
      if (const auto* v = kv.find("reads")) {
        if (!parse_int(*v, &s.reads_per_reader) || s.reads_per_reader < 0) {
          return fail(line_no, "bad reads");
        }
      }
      if (const auto* v = kv.find("write_gap")) {
        if (!parse_time(*v, &s.write_gap)) {
          return fail(line_no, "bad write_gap");
        }
      }
      if (const auto* v = kv.find("read_gap")) {
        if (!parse_time(*v, &s.read_gap)) return fail(line_no, "bad read_gap");
      }
      if (const auto* v = kv.find("shards")) {
        if (!parse_int(*v, &s.shards) || s.shards < 1) {
          return fail(line_no, "bad shards");
        }
      }
      // Open-loop keys (docs/WORKLOADS.md). `arrival=` selects the process;
      // the population/horizon keys are only legal once it is open, so an
      // emitted scenario (which drops them at their defaults) re-parses to
      // the same Scenario value.
      if (const auto* v = kv.find("arrival")) {
        const auto a = arrival_from_name(*v);
        if (!a) {
          return fail(line_no, "unknown arrival '" + *v +
                                   "' (closed|poisson|bursty|diurnal)");
        }
        s.arrival = *a;
      }
      if (const auto* v = kv.find("clients")) {
        if (!parse_u64(*v, &s.clients) || s.clients == 0) {
          return fail(line_no, "bad clients (want >= 1)");
        }
      }
      if (const auto* v = kv.find("think")) {
        if (!parse_time(*v, &s.think) || s.think == 0) {
          return fail(line_no, "bad think (want a time >= 1)");
        }
      }
      if (const auto* v = kv.find("horizon")) {
        if (!parse_time(*v, &s.horizon) || s.horizon == 0) {
          return fail(line_no, "bad horizon (want a time >= 1)");
        }
      }
      if (const auto* v = kv.find("write_frac")) {
        if (!parse_rate(*v, &s.write_fraction) || s.write_fraction < 0 ||
            s.write_fraction > 1) {
          return fail(line_no, "bad write_frac (want a fraction in [0, 1])");
        }
      }
      if (s.arrival == ArrivalKind::Closed) {
        for (const char* key : {"clients", "think", "horizon", "write_frac"}) {
          if (kv.find(key) != nullptr) {
            return fail(line_no, std::string(key) +
                                     "= needs an open arrival process "
                                     "(arrival=poisson|bursty|diurnal)");
          }
        }
      }
      if (const auto* v = kv.find("window")) {
        std::uint64_t window = 0;
        if (!parse_u64(*v, &window)) {
          return fail(line_no, "bad window (want 0 = retain all, or >= 1)");
        }
        s.checker_window = static_cast<std::size_t>(window);
      }
    } else if (directive == "check") {
      if (tokens.size() != 2) {
        return fail(line_no, "want: check safe|regular|atomic");
      }
      if (tokens[1] == "safe") s.check_override = Semantics::Safe;
      else if (tokens[1] == "regular") s.check_override = Semantics::Regular;
      else if (tokens[1] == "atomic") s.check_override = Semantics::Atomic;
      else return fail(line_no, "unknown semantics '" + tokens[1] + "'");
    } else if (directive == "expect") {
      if (tokens.size() != 2 || (tokens[1] != "ok" && tokens[1] != "fail")) {
        return fail(line_no, "want: expect ok|fail");
      }
      s.expect_ok = tokens[1] == "ok";
    } else if (directive == "deadline") {
      if (tokens.size() != 2 || !parse_wall_ms(tokens[1], &s.max_wall_ms)) {
        return fail(line_no, "want: deadline <milliseconds>[ms|s]");
      }
    } else if (directive == "runseed") {
      if (tokens.size() != 2 || !parse_u64(tokens[1], &s.run_seed)) {
        return fail(line_no, "want: runseed <u64>");
      }
    } else if (directive == "history") {
      const KvArgs kv(tokens, 1);
      if (!kv.bad.empty()) return fail(line_no, "stray token '" + kv.bad +
                                                    "'");
      if (const auto k = kv.unknown_key({"limit", "gc"}); !k.empty()) {
        return fail(line_no, "unknown key '" + k + "'");
      }
      if (const auto* v = kv.find("limit")) {
        std::uint64_t limit = 0;
        if (!parse_u64(*v, &limit) || limit == 1) {
          return fail(line_no, "bad limit (want 0 = unlimited, or >= 2)");
        }
        s.history_limit = static_cast<std::size_t>(limit);
      }
      if (const auto* v = kv.find("gc")) {
        if (*v == "on") s.history_gc = true;
        else if (*v == "off") s.history_gc = false;
        else return fail(line_no, "bad gc (want on|off)");
      }
    } else if (directive == "fault") {
      if (tokens.size() < 2) return fail(line_no, "want: fault <kind> ...");
      const std::string& kind = tokens[1];
      const KvArgs kv(tokens, 2);
      if (!kv.bad.empty()) {
        return fail(line_no, "stray token '" + kv.bad + "'");
      }
      FaultEvent ev;
      const auto need_obj = [&]() -> std::string {
        const auto* v = kv.find("obj");
        if (v == nullptr) return "missing obj=";
        if (!parse_int(*v, &ev.object) || ev.object < 0) return "bad obj";
        return "";
      };
      /// gray/skew accept either obj=N or role=writer|reader [idx=J]: the
      /// client processes read clocks too, so the per-process fault kinds
      /// can address them (role=reader defaults to reader 0).
      const auto need_target = [&]() -> std::string {
        const auto* obj = kv.find("obj");
        const auto* role = kv.find("role");
        if (obj != nullptr && role != nullptr) {
          return "both obj= and role= given";
        }
        if (role == nullptr) {
          if (kv.find("idx") != nullptr) return "idx= needs role=reader";
          return need_obj();
        }
        if (*role == "writer") {
          ev.role = Role::Writer;
          if (kv.find("idx") != nullptr) return "role=writer takes no idx=";
        } else if (*role == "reader") {
          ev.role = Role::Reader;
          if (const auto* idx = kv.find("idx")) {
            if (!parse_int(*idx, &ev.object) || ev.object < 0) {
              return "bad idx";
            }
          }
        } else {
          return "unknown role '" + *role + "' (want writer|reader)";
        }
        return "";
      };
      const auto need_objs = [&]() -> std::string {
        const auto* v = kv.find("objs");
        if (v == nullptr) return "missing objs=";
        if (!parse_objs(*v, &ev.held)) return "bad objs";
        return "";
      };
      const auto scope_objs = [&]() -> std::string {
        if (const auto* v = kv.find("objs")) {
          std::vector<int> objs;
          if (!parse_objs(*v, &objs) && *v != "all") return "bad objs";
          ev.held = std::move(objs);
        }
        return "";
      };
      std::string err;
      if (kind == "crash") {
        if (const auto k = kv.unknown_key({"obj", "at", "from"}); !k.empty()) {
          return fail(line_no, "unknown key '" + k + "'");
        }
        ev.kind = FaultEvent::Kind::Crash;
        if (err = need_obj(); !err.empty()) return fail(line_no, err);
        Time dur = 0;
        if (err = parse_window(kv, &ev.at, &dur); !err.empty()) {
          return fail(line_no, err);
        }
      } else if (kind == "byz") {
        if (const auto k = kv.unknown_key({"obj", "strategy"}); !k.empty()) {
          return fail(line_no, "unknown key '" + k + "'");
        }
        ev.kind = FaultEvent::Kind::Byzantine;
        if (err = need_obj(); !err.empty()) return fail(line_no, err);
        if (const auto* v = kv.find("strategy")) {
          bool found = false;
          for (const auto st : kAllStrategies) {
            if (*v == adversary::to_string(st)) {
              ev.strategy = st;
              found = true;
            }
          }
          if (!found) {
            return fail(line_no, "unknown strategy '" + *v + "'");
          }
        }
      } else if (kind == "hold" || kind == "partition") {
        if (const auto k = kv.unknown_key(
                {"objs", "dir", "at", "from", "dur", "to"});
            !k.empty()) {
          return fail(line_no, "unknown key '" + k + "'");
        }
        ev.kind = FaultEvent::Kind::Hold;
        if (kind == "partition") {
          const auto* v = kv.find("dir");
          if (v == nullptr || (*v != "in" && *v != "out")) {
            return fail(line_no, "partition needs dir=in|out");
          }
          ev.kind = *v == "in" ? FaultEvent::Kind::PartitionIn
                               : FaultEvent::Kind::PartitionOut;
        } else if (kv.find("dir") != nullptr) {
          return fail(line_no, "unknown key 'dir'");
        }
        if (err = need_objs(); !err.empty()) return fail(line_no, err);
        if (err = parse_window(kv, &ev.at, &ev.duration); !err.empty()) {
          return fail(line_no, err);
        }
        if (ev.duration == 0) {
          return fail(line_no, "a hold window needs dur= or to= (holds must "
                               "be released)");
        }
      } else if (kind == "flap") {
        if (const auto k = kv.unknown_key({"objs", "at", "from", "dur", "to",
                                           "period", "duty", "jitter"});
            !k.empty()) {
          return fail(line_no, "unknown key '" + k + "'");
        }
        ev.kind = FaultEvent::Kind::Flap;
        if (err = need_objs(); !err.empty()) return fail(line_no, err);
        if (err = parse_window(kv, &ev.at, &ev.duration); !err.empty()) {
          return fail(line_no, err);
        }
        if (ev.duration == 0) ev.duration = 300'000;
        ev.period = 20'000;
        if (const auto* v = kv.find("period")) {
          if (!parse_time(*v, &ev.period) || ev.period == 0) {
            return fail(line_no, "bad period");
          }
        }
        ev.rate = 0.5;
        if (const auto* v = kv.find("duty")) {
          if (!parse_rate(*v, &ev.rate) || ev.rate <= 0 || ev.rate >= 1) {
            return fail(line_no, "bad duty (want a fraction in (0, 1))");
          }
        }
        if (const auto* v = kv.find("jitter")) {
          if (!parse_time(*v, &ev.jitter)) return fail(line_no, "bad jitter");
        }
      } else if (kind == "gray") {
        if (const auto k = kv.unknown_key({"obj", "role", "idx", "slow", "at",
                                           "from", "dur", "to"});
            !k.empty()) {
          return fail(line_no, "unknown key '" + k + "'");
        }
        ev.kind = FaultEvent::Kind::Gray;
        if (err = need_target(); !err.empty()) return fail(line_no, err);
        const auto* v = kv.find("slow");
        if (v == nullptr || !parse_rate(*v, &ev.rate) || ev.rate <= 1.0) {
          return fail(line_no, "gray needs slow=FACTORx with factor > 1");
        }
        if (err = parse_window(kv, &ev.at, &ev.duration); !err.empty()) {
          return fail(line_no, err);
        }
      } else if (kind == "skew") {
        if (const auto k = kv.unknown_key({"obj", "role", "idx", "offset"});
            !k.empty()) {
          return fail(line_no, "unknown key '" + k + "'");
        }
        ev.kind = FaultEvent::Kind::Skew;
        if (err = need_target(); !err.empty()) return fail(line_no, err);
        const auto* v = kv.find("offset");
        if (v == nullptr || !parse_offset(*v, &ev.skew)) {
          return fail(line_no, "skew needs offset=[-]TIME");
        }
      } else if (kind == "loss" || kind == "dup" || kind == "reorder") {
        if (const auto k = kv.unknown_key(
                {"p", "objs", "at", "from", "dur", "to", "delay"});
            !k.empty()) {
          return fail(line_no, "unknown key '" + k + "'");
        }
        ev.kind = kind == "loss"    ? FaultEvent::Kind::Loss
                  : kind == "dup"   ? FaultEvent::Kind::Duplicate
                                    : FaultEvent::Kind::Reorder;
        const auto* v = kv.find("p");
        if (v == nullptr || !parse_rate(*v, &ev.rate) || ev.rate <= 0 ||
            ev.rate > 1) {
          return fail(line_no, kind + " needs p=PROB in (0, 1]");
        }
        if (err = scope_objs(); !err.empty()) return fail(line_no, err);
        if (err = parse_window(kv, &ev.at, &ev.duration); !err.empty()) {
          return fail(line_no, err);
        }
        if (kind == "reorder") {
          ev.period = 20'000;
          if (const auto* d = kv.find("delay")) {
            if (!parse_time(*d, &ev.period) || ev.period == 0) {
              return fail(line_no, "bad delay");
            }
          }
        } else if (kv.find("delay") != nullptr) {
          return fail(line_no, "unknown key 'delay'");
        }
      } else {
        return fail(line_no, "unknown fault kind '" + kind + "'");
      }
      s.events.push_back(std::move(ev));
      event_lines.push_back(line_no);
    } else {
      return fail(line_no, "unknown directive '" + directive + "'");
    }
  }

  if (!saw_scenario) return fail(line_no, "missing scenario line");

  // Semantic validation against the effective resilience recipe, so a bad
  // file is a parse error that names the offending `fault` line instead of
  // a late assertion failure deep inside the sweep's deployment build.
  const Resilience res =
      protocol_traits(s.protocol).resilience_for(s.t, s.b, s.readers);
  int byz_count = 0;
  int link_rules[3] = {0, 0, 0};
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const auto& ev = s.events[i];
    const int ev_line = event_lines[i];
    const auto check_obj = [&](int o) {
      return o >= 0 && o < res.num_objects;
    };
    const auto obj_range_error = [&](int o) {
      return fail(ev_line, "object " + std::to_string(o) +
                               " out of range (this deployment has " +
                               std::to_string(res.num_objects) + " objects)");
    };
    switch (ev.kind) {
      case FaultEvent::Kind::Byzantine:
        ++byz_count;
        if (byz_count > res.b) {
          return fail(ev_line, std::to_string(byz_count) +
                                   " byzantine faults exceed the budget b = " +
                                   std::to_string(res.b));
        }
        [[fallthrough]];
      case FaultEvent::Kind::Crash:
        if (!check_obj(ev.object)) return obj_range_error(ev.object);
        break;
      case FaultEvent::Kind::Gray:
      case FaultEvent::Kind::Skew:
        // The per-process kinds may address a client role instead of an
        // object; reader indices live in their own 0..R-1 range.
        if (ev.role == Role::Reader && ev.object >= res.num_readers) {
          return fail(ev_line, "reader index " + std::to_string(ev.object) +
                                   " out of range (this deployment has " +
                                   std::to_string(res.num_readers) +
                                   " readers)");
        }
        if (ev.role == Role::Object && !check_obj(ev.object)) {
          return obj_range_error(ev.object);
        }
        break;
      case FaultEvent::Kind::Hold:
      case FaultEvent::Kind::PartitionIn:
      case FaultEvent::Kind::PartitionOut:
      case FaultEvent::Kind::Flap:
      case FaultEvent::Kind::Loss:
      case FaultEvent::Kind::Duplicate:
      case FaultEvent::Kind::Reorder:
        for (const int o : ev.held) {
          if (!check_obj(o)) return obj_range_error(o);
        }
        if (ev.kind == FaultEvent::Kind::Loss ||
            ev.kind == FaultEvent::Kind::Duplicate ||
            ev.kind == FaultEvent::Kind::Reorder) {
          const int slot = ev.kind == FaultEvent::Kind::Loss        ? 0
                           : ev.kind == FaultEvent::Kind::Duplicate ? 1
                                                                    : 2;
          if (++link_rules[slot] > 1) {
            return fail(ev_line, std::string("at most one ") +
                                     (slot == 0   ? "loss"
                                      : slot == 1 ? "dup"
                                                  : "reorder") +
                                     " fault per scenario");
          }
        }
        break;
    }
  }
  result.ok = true;
  return result;
}

namespace {

/// Gray/Skew target as it appears in the DSL: `obj=N` for base objects,
/// `role=writer` / `role=reader idx=J` for client processes.
std::string emit_target(const FaultEvent& ev) {
  switch (ev.role) {
    case Role::Writer:
      return "role=writer";
    case Role::Reader:
      return "role=reader idx=" + std::to_string(ev.object);
    case Role::Object:
      break;
  }
  return "obj=" + std::to_string(ev.object);
}

}  // namespace

std::string emit_scenario(const Scenario& s) {
  std::string out;
  const auto line = [&out](const std::string& l) {
    out += l;
    out += '\n';
  };
  const auto t = [](Time x) {
    return std::to_string(static_cast<unsigned long long>(x));
  };
  const auto objs = [](const std::vector<int>& v) {
    if (v.empty()) return std::string("all");
    std::string o;
    for (const int x : v) {
      if (!o.empty()) o += ",";
      o += std::to_string(x);
    }
    return o;
  };

  std::string head = std::string("scenario ") +
                     protocol_traits(s.protocol).cli_name + " " +
                     to_string(s.backend) + " seed=" + std::to_string(s.seed);
  if (!s.name.empty()) head += " name=" + s.name;
  line(head);
  line(std::string("template ") + to_string(s.tmpl));
  line("budget t=" + std::to_string(s.t) + " b=" + std::to_string(s.b) +
       " readers=" + std::to_string(s.readers));
  line("workload writes=" + std::to_string(s.writes) +
       " reads=" + std::to_string(s.reads_per_reader) +
       " write_gap=" + t(s.write_gap) + " read_gap=" + t(s.read_gap) +
       " shards=" + std::to_string(s.shards));
  // Open-loop / windowed-checker keys: emitted only when off-default, so
  // pre-existing scenario files stay byte-identical.
  if (s.arrival != ArrivalKind::Closed || s.checker_window != 0) {
    std::string l = "workload";
    if (s.arrival != ArrivalKind::Closed) {
      l += std::string(" arrival=") + to_string(s.arrival);
      l += " clients=" + std::to_string(s.clients);
      l += " think=" + t(s.think);
      l += " horizon=" + t(s.horizon);
      l += " write_frac=" + fmt_double(s.write_fraction);
    }
    if (s.checker_window != 0) {
      l += " window=" + std::to_string(s.checker_window);
    }
    line(l);
  }
  if (s.check_override) {
    line(std::string("check ") + semantics_name(*s.check_override));
  }
  if (!s.expect_ok) line("expect fail");
  if (s.max_wall_ms != 0) line("deadline " + std::to_string(s.max_wall_ms));
  if (s.run_seed != 0) line("runseed " + std::to_string(s.run_seed));
  // Emitted only when off-default, so pre-existing scenario files (and
  // their emitted forms) stay byte-identical.
  if (s.history_limit != 0 || !s.history_gc) {
    std::string l = "history";
    if (s.history_limit != 0) l += " limit=" + std::to_string(s.history_limit);
    if (!s.history_gc) l += " gc=off";
    line(l);
  }

  for (const auto& ev : s.events) {
    switch (ev.kind) {
      case FaultEvent::Kind::Crash:
        line("fault crash obj=" + std::to_string(ev.object) +
             " at=" + t(ev.at));
        break;
      case FaultEvent::Kind::Byzantine:
        line("fault byz obj=" + std::to_string(ev.object) +
             " strategy=" + adversary::to_string(ev.strategy));
        break;
      case FaultEvent::Kind::Hold:
        line("fault hold objs=" + objs(ev.held) + " at=" + t(ev.at) +
             " dur=" + t(ev.duration));
        break;
      case FaultEvent::Kind::PartitionIn:
      case FaultEvent::Kind::PartitionOut:
        line("fault partition objs=" + objs(ev.held) + " dir=" +
             (ev.kind == FaultEvent::Kind::PartitionIn ? "in" : "out") +
             " at=" + t(ev.at) + " dur=" + t(ev.duration));
        break;
      case FaultEvent::Kind::Flap:
        line("fault flap objs=" + objs(ev.held) + " at=" + t(ev.at) +
             " dur=" + t(ev.duration) + " period=" + t(ev.period) +
             " duty=" + fmt_double(ev.rate) + " jitter=" + t(ev.jitter));
        break;
      case FaultEvent::Kind::Gray: {
        std::string l = "fault gray " + emit_target(ev) +
                        " slow=" + fmt_double(ev.rate) + " at=" + t(ev.at);
        if (ev.duration != 0) l += " dur=" + t(ev.duration);
        line(l);
        break;
      }
      case FaultEvent::Kind::Skew:
        line("fault skew " + emit_target(ev) +
             " offset=" + std::to_string(static_cast<long long>(ev.skew)));
        break;
      case FaultEvent::Kind::Loss:
      case FaultEvent::Kind::Duplicate:
      case FaultEvent::Kind::Reorder: {
        std::string l = "fault ";
        l += ev.kind == FaultEvent::Kind::Loss        ? "loss"
             : ev.kind == FaultEvent::Kind::Duplicate ? "dup"
                                                      : "reorder";
        l += " p=" + fmt_double(ev.rate);
        if (ev.kind == FaultEvent::Kind::Reorder) {
          l += " delay=" + t(ev.period);
        }
        if (!ev.held.empty()) l += " objs=" + objs(ev.held);
        if (ev.at != 0) l += " at=" + t(ev.at);
        if (ev.duration != 0) l += " dur=" + t(ev.duration);
        line(l);
        break;
      }
    }
  }
  return out;
}

ScenarioParseResult load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ScenarioParseResult result;
    result.error = "cannot open " + path;
    return result;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto result = parse_scenario(buf.str());
  if (result.ok && result.scenario.name.empty()) {
    // An unnamed file-backed scenario takes its filename stem as the cell
    // name, so every library cell has a stable "scn:<name>" key.
    result.scenario.name = std::filesystem::path(path).stem().string();
  }
  return result;
}

bool save_scenario_file(const Scenario& s, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << emit_scenario(s);
  return static_cast<bool>(out.flush());
}

ScenarioLibrary load_scenario_dir(const std::string& dir) {
  ScenarioLibrary lib;
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".scn") paths.push_back(entry.path());
  }
  if (ec) {
    lib.errors.push_back(dir + ": " + ec.message());
    return lib;
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    auto result = load_scenario_file(path.string());
    if (result.ok) {
      lib.scenarios.push_back(std::move(result.scenario));
    } else {
      lib.errors.push_back(path.string() + ": " + result.error);
    }
  }
  return lib;
}

}  // namespace rr::harness
