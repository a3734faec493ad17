#include "fuzz/scenario_json.h"

#include <functional>
#include <stdexcept>

#include "exp/json.h"

namespace delta::fuzz {

namespace {

void write_step(exp::JsonWriter& w, const Step& s) {
  w.begin_object();
  w.key("op").value(step_kind_name(s.kind));
  switch (s.kind) {
    case Step::Kind::kCompute:
      w.key("cycles").value(static_cast<std::uint64_t>(s.cycles));
      break;
    case Step::Kind::kRequest:
    case Step::Kind::kRelease:
      w.key("resources").begin_array();
      for (rtos::ResourceId r : s.resources)
        w.value(static_cast<std::uint64_t>(r));
      w.end_array();
      break;
    case Step::Kind::kLock:
    case Step::Kind::kUnlock:
      w.key("lock").value(static_cast<std::uint64_t>(s.lock));
      break;
    case Step::Kind::kAlloc:
      w.key("bytes").value(s.bytes);
      w.key("slot").value(s.slot);
      break;
    case Step::Kind::kFree:
      w.key("slot").value(s.slot);
      break;
  }
  w.end_object();
}

}  // namespace

void write_scenario_value(exp::JsonWriter& w, const Scenario& s) {
  w.begin_object();
  w.key("name").value(s.name);
  w.key("seed").value(s.seed);
  w.key("geometry").begin_object();
  w.key("pes").value(static_cast<std::uint64_t>(s.pe_count));
  w.key("resources").value(static_cast<std::uint64_t>(s.resource_count));
  w.key("locks").value(static_cast<std::uint64_t>(s.lock_count));
  w.end_object();
  w.key("run_limit").value(static_cast<std::uint64_t>(s.run_limit));
  w.key("tasks").begin_array();
  for (const ScenarioTask& t : s.tasks) {
    w.begin_object();
    w.key("name").value(t.name);
    w.key("pe").value(static_cast<std::uint64_t>(t.pe));
    w.key("priority").value(static_cast<std::int64_t>(t.priority));
    w.key("release").value(static_cast<std::uint64_t>(t.release_time));
    w.key("steps").begin_array();
    for (const Step& st : t.steps) write_step(w, st);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string scenario_to_json(const Scenario& s) {
  exp::JsonWriter w;
  write_scenario_value(w, s);
  return w.finish();
}

namespace {

// Minimal recursive-descent parser over the repro grammar. Numbers are
// kept as integers end to end (scenario seeds use the full 64-bit
// range; doubles would corrupt them and break byte-stable round trips).
// Each object or array level recurses once, so nesting is capped: a
// repro nests six levels, and a hostile file must not blow the stack.
class Parser {
 public:
  static constexpr int kMaxDepth = 64;

  explicit Parser(const std::string& text) : s_(text) {}

  [[noreturn]] void fail(const std::string& why) const {
    std::size_t line = 1, col = 1;
    for (std::size_t j = 0; j < i_ && j < s_.size(); ++j) {
      if (s_[j] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::invalid_argument("scenario JSON: " + why + " at line " +
                                std::to_string(line) + ", column " +
                                std::to_string(col));
  }

  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r'))
      ++i_;
  }

  char peek() {
    ws();
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++i_;
    return true;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) fail("dangling escape");
        const char e = s_[i_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (i_ + 4 > s_.size()) fail("truncated \\u escape");
            unsigned v = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s_[i_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                v |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            if (v > 0x7f) fail("non-ASCII \\u escape unsupported");
            out.push_back(static_cast<char>(v));
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    if (i_ >= s_.size()) fail("unterminated string");
    ++i_;  // closing quote
    return out;
  }

  std::uint64_t uint64() {
    ws();
    if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9')
      fail("expected unsigned integer");
    std::uint64_t v = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      const std::uint64_t d = static_cast<std::uint64_t>(s_[i_] - '0');
      if (v > (UINT64_MAX - d) / 10) fail("integer overflow");
      v = v * 10 + d;
      ++i_;
    }
    if (i_ < s_.size() && (s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E'))
      fail("expected integer, found real number");
    return v;
  }

  std::int64_t int64() {
    const bool neg = consume('-');
    const std::uint64_t v = uint64();
    if (neg) {
      if (v > static_cast<std::uint64_t>(INT64_MAX)) fail("integer overflow");
      return -static_cast<std::int64_t>(v);
    }
    if (v > static_cast<std::uint64_t>(INT64_MAX)) fail("integer overflow");
    return static_cast<std::int64_t>(v);
  }

  std::int32_t int32() {
    const std::int64_t v = int64();
    if (v < INT32_MIN || v > INT32_MAX) fail("integer out of 32-bit range");
    return static_cast<std::int32_t>(v);
  }

  /// `fn(key)` must consume the key's value.
  void object(const std::function<void(const std::string&)>& fn) {
    expect('{');
    const Nest nest(*this);
    if (consume('}')) return;
    while (true) {
      const std::string key = string();
      expect(':');
      fn(key);
      if (consume('}')) return;
      expect(',');
    }
  }

  /// `fn()` must consume one element.
  void array(const std::function<void()>& fn) {
    expect('[');
    const Nest nest(*this);
    if (consume(']')) return;
    while (true) {
      fn();
      if (consume(']')) return;
      expect(',');
    }
  }

  /// Skip any value (unknown-key tolerance for hand-edited files).
  void skip_value() {
    const char c = peek();
    if (c == '"') {
      string();
    } else if (c == '{') {
      object([this](const std::string&) { skip_value(); });
    } else if (c == '[') {
      array([this] { skip_value(); });
    } else if (c == 't') {
      keyword("true");
    } else if (c == 'f') {
      keyword("false");
    } else if (c == 'n') {
      keyword("null");
    } else {
      int64();
    }
  }

  void keyword(const char* word) {
    ws();
    for (const char* p = word; *p != '\0'; ++p)
      if (i_ >= s_.size() || s_[i_++] != *p) fail("bad literal");
  }

  void end() {
    ws();
    if (i_ != s_.size()) fail("trailing content");
  }

 private:
  /// One open object or array for the lifetime of its parse.
  struct Nest {
    explicit Nest(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth)
        p_.fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    Parser& p_;
  };

  const std::string& s_;
  std::size_t i_ = 0;
  int depth_ = 0;
};

Step parse_step(Parser& p) {
  Step st;
  std::string op;
  p.object([&](const std::string& key) {
    if (key == "op") op = p.string();
    else if (key == "cycles") st.cycles = p.uint64();
    else if (key == "resources")
      p.array([&] {
        st.resources.push_back(static_cast<rtos::ResourceId>(p.uint64()));
      });
    else if (key == "lock") st.lock = static_cast<rtos::LockId>(p.uint64());
    else if (key == "bytes") st.bytes = p.uint64();
    else if (key == "slot") st.slot = p.string();
    else p.skip_value();
  });
  if (op == "compute") st.kind = Step::Kind::kCompute;
  else if (op == "request") st.kind = Step::Kind::kRequest;
  else if (op == "release") st.kind = Step::Kind::kRelease;
  else if (op == "lock") st.kind = Step::Kind::kLock;
  else if (op == "unlock") st.kind = Step::Kind::kUnlock;
  else if (op == "alloc") st.kind = Step::Kind::kAlloc;
  else if (op == "free") st.kind = Step::Kind::kFree;
  else p.fail("unknown step op '" + op + "'");
  return st;
}

ScenarioTask parse_task(Parser& p) {
  ScenarioTask t;
  p.object([&](const std::string& key) {
    if (key == "name") t.name = p.string();
    else if (key == "pe") t.pe = static_cast<rtos::PeId>(p.uint64());
    else if (key == "priority") t.priority = p.int32();
    else if (key == "release") t.release_time = p.uint64();
    else if (key == "steps")
      p.array([&] { t.steps.push_back(parse_step(p)); });
    else p.skip_value();
  });
  return t;
}

}  // namespace

Scenario scenario_from_json(const std::string& json) {
  Parser p(json);
  Scenario s;
  p.object([&](const std::string& key) {
    if (key == "name") s.name = p.string();
    else if (key == "seed") s.seed = p.uint64();
    else if (key == "run_limit") s.run_limit = p.uint64();
    else if (key == "geometry")
      p.object([&](const std::string& g) {
        if (g == "pes") s.pe_count = p.uint64();
        else if (g == "resources") s.resource_count = p.uint64();
        else if (g == "locks") s.lock_count = p.uint64();
        else p.skip_value();
      });
    else if (key == "tasks")
      p.array([&] { s.tasks.push_back(parse_task(p)); });
    else p.skip_value();
  });
  p.end();
  const std::vector<std::string> errors = s.validate();
  if (!errors.empty())
    throw std::invalid_argument("scenario JSON: invalid scenario: " +
                                errors.front());
  return s;
}

}  // namespace delta::fuzz
