// Shared argv parsing for the delta_* example CLIs.
//
// Each tool declares its flags once (name, value placeholder, help,
// default); parsing, "--help", unknown-flag diagnostics, and the usage
// layout are then uniform across delta_sweep, delta_profile, delta_fuzz
// and delta_gen. Values stay strings internally; the typed getters
// (u64/size/integer/list) convert at the call site and reject a value
// that is not one whole in-range number, naming the flag. Every output
// file goes through write_output, so a failed write is an error exit,
// and a document sent to stdout ("-") keeps stdout to itself: the
// tool's other lines go to log_stream(), which is then stderr.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace delta::cli {

/// Split on `sep`; "a,,b" yields ["a", "", "b"] and "" yields [""].
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// Write `bytes` to `path` ("-" = stdout) and check that all of them
/// arrived. The file is closed (stdout flushed) before the check, so a
/// full disk fails here rather than silently at exit. Prints "cannot
/// write <path>" to stderr and returns false on failure.
inline bool write_output(const std::string& path, std::string_view bytes) {
  const bool to_stdout = path == "-";
  std::FILE* f = to_stdout ? stdout : std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = (to_stdout ? std::fflush(f) : std::fclose(f)) == 0 && ok;
  }
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return ok;
}

/// Flag registry + parser. Registration order is usage order.
class Args {
 public:
  /// `synopsis` is the one-line description under "usage:"; pass the
  /// bracketed argument summary (e.g. "[options]").
  Args(std::string prog, std::string arg_summary)
      : prog_(std::move(prog)), arg_summary_(std::move(arg_summary)) {}

  /// A value-taking option, registered as --name. Multi-line help is
  /// supported: embedded '\n's continue indented at the help column.
  Args& opt(std::string name, std::string value_name, std::string help,
            std::string def = {}) {
    specs_.push_back({name, std::move(value_name), std::move(help), false});
    values_[std::move(name)] = std::move(def);
    return *this;
  }

  /// A boolean flag (present/absent), registered as --name.
  Args& flag(std::string name, std::string help) {
    specs_.push_back({std::move(name), "", std::move(help), true});
    return *this;
  }

  /// Accept --from as a synonym for --to (not shown in usage).
  Args& alias(std::string from, std::string to) {
    aliases_[std::move(from)] = std::move(to);
    return *this;
  }

  /// Free text printed after the option table (e.g. workload names).
  Args& footer(std::string text) {
    footer_ = std::move(text);
    return *this;
  }

  /// Allow `min`..`max` positional (non-flag) arguments; `usage_names`
  /// describes them in the usage line. Positionals are rejected unless
  /// this is called.
  Args& positional(std::string usage_names, std::size_t min,
                   std::size_t max) {
    arg_summary_ = std::move(usage_names);
    pos_min_ = min;
    pos_max_ = max;
    return *this;
  }

  /// Exit code used for command-line errors (default 2).
  Args& usage_exit(int code) {
    usage_exit_ = code;
    return *this;
  }

  /// Parse argv. "--help"/"-h" prints usage and exits 0; an unknown
  /// flag, a missing value, or a stray positional prints usage and
  /// exits with the usage_exit code.
  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage(stdout);
        std::exit(0);
      }
      if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
        positionals_.push_back(std::move(arg));
        continue;
      }
      std::string name = arg.substr(2);
      const auto al = aliases_.find(name);
      if (al != aliases_.end()) name = al->second;
      const Spec* spec = find(name);
      if (spec == nullptr) fail("unknown option " + arg);
      set_.insert(name);
      if (spec->is_flag) continue;
      if (i + 1 >= argc) fail(arg + " needs a value");
      values_[name] = argv[++i];
    }
    if (positionals_.size() < pos_min_ || positionals_.size() > pos_max_) {
      if (pos_max_ == 0 && !positionals_.empty())
        fail("unexpected argument " + positionals_.front());
      fail("expected " + std::to_string(pos_min_) +
           (pos_min_ == pos_max_ ? "" : ".." + std::to_string(pos_max_)) +
           " positional argument(s)");
    }
  }

  /// True if the flag/option appeared on the command line.
  [[nodiscard]] bool on(const std::string& name) const {
    return set_.count(name) != 0;
  }

  [[nodiscard]] const std::string& str(const std::string& name) const {
    return values_.at(name);
  }
  [[nodiscard]] std::uint64_t u64(const std::string& name) const {
    return number<std::uint64_t>(name, "a non-negative integer");
  }
  [[nodiscard]] std::size_t size(const std::string& name) const {
    return number<std::size_t>(name, "a non-negative integer");
  }
  [[nodiscard]] int integer(const std::string& name) const {
    return number<int>(name, "an integer");
  }
  /// Comma-split value ("1,4,5" -> {"1","4","5"}).
  [[nodiscard]] std::vector<std::string> list(const std::string& name) const {
    return split(str(name), ',');
  }
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// The stream for the tool's progress and summary lines. When one of
  /// the document options `docs` is "-", the document owns stdout and
  /// the lines go to stderr. Two documents on stdout print an error
  /// naming both flags and exit 2.
  [[nodiscard]] std::FILE* log_stream(
      std::initializer_list<const char*> docs) const {
    const char* on_stdout = nullptr;
    for (const char* name : docs) {
      if (str(name) != "-") continue;
      if (on_stdout != nullptr) {
        std::fprintf(stderr, "%s: --%s and --%s both write to stdout ('-')\n",
                     prog_.c_str(), on_stdout, name);
        std::exit(2);
      }
      on_stdout = name;
    }
    return on_stdout != nullptr ? stderr : stdout;
  }

  void print_usage(std::FILE* to) const {
    std::fprintf(to, "usage: %s %s\n", prog_.c_str(), arg_summary_.c_str());
    // Align help text one column past the widest "--name VALUE" stem.
    std::size_t width = 0;
    for (const Spec& s : specs_) width = std::max(width, stem(s).size());
    for (const Spec& s : specs_) {
      const std::string head = stem(s);
      std::fprintf(to, "  %-*s ", static_cast<int>(width), head.c_str());
      for (std::size_t i = 0; i < s.help.size(); ++i) {
        if (s.help[i] == '\n') {
          std::fprintf(to, "\n  %-*s ", static_cast<int>(width), "");
        } else {
          std::fputc(s.help[i], to);
        }
      }
      std::fputc('\n', to);
    }
    if (!footer_.empty()) std::fprintf(to, "%s\n", footer_.c_str());
  }

 private:
  struct Spec {
    std::string name;
    std::string value_name;
    std::string help;
    bool is_flag;
  };

  [[nodiscard]] const Spec* find(const std::string& name) const {
    for (const Spec& s : specs_)
      if (s.name == name) return &s;
    return nullptr;
  }

  /// Parse the whole value of --name as a T; anything else (empty,
  /// trailing junk, a sign on an unsigned flag, out of range) fails.
  template <typename T>
  [[nodiscard]] T number(const std::string& name, const char* what) const {
    const std::string& v = str(name);
    T out{};
    const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || ptr != v.data() + v.size())
      fail("--" + name + " expects " + what + ", got '" + v + "'");
    return out;
  }

  [[nodiscard]] static std::string stem(const Spec& s) {
    return "--" + s.name + (s.is_flag ? "" : " " + s.value_name);
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\n", prog_.c_str(), why.c_str());
    print_usage(stderr);
    std::exit(usage_exit_);
  }

  std::string prog_;
  std::string arg_summary_;
  std::string footer_;
  std::vector<Spec> specs_;
  std::map<std::string, std::string> aliases_;
  std::map<std::string, std::string> values_;
  std::set<std::string> set_;
  std::vector<std::string> positionals_;
  std::size_t pos_min_ = 0;
  std::size_t pos_max_ = 0;
  int usage_exit_ = 2;
};

}  // namespace delta::cli
