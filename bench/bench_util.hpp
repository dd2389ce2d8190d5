#pragma once
// Shared helpers for the experiment benches: fixed-width table printing so
// every bench emits a reproducible, diff-able report, and one command-line
// parser for the E15-E23 flags.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace benchutil {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& s = c < cells.size() ? cells[c] : std::string();
        std::printf("%-*s  ", static_cast<int>(width[c]), s.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = 0;
    for (auto w : width) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}
inline std::string fmt_u(unsigned long long v) { return std::to_string(v); }

/// The benches' command line. Each bench registers the flags it accepts,
/// with the default already in the target variable, then calls parse():
///
///   benchutil::Args().value("--seed", seed).flag("--smoke", smoke)
///       .parse(argc, argv);
///
/// A value flag takes the next argument (integers in base 10, doubles via
/// strtod); a switch sets its bool. An unknown flag, or a value flag with
/// no value, prints the usage line built from the registered flags and
/// exits with status 2.
class Args {
 public:
  Args& flag(const char* name, bool& out) {
    specs_.push_back({name, false, [&out](const char*) { out = true; }});
    return *this;
  }

  template <class T>
  Args& value(const char* name, T& out) {
    specs_.push_back({name, true, [&out](const char* v) {
                        if constexpr (std::is_floating_point_v<T>) {
                          out = static_cast<T>(std::strtod(v, nullptr));
                        } else {
                          out = static_cast<T>(std::strtoull(v, nullptr, 10));
                        }
                      }});
    return *this;
  }

  void parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const Spec* s = find(argv[i]);
      if (s == nullptr || (s->takes_value && i + 1 >= argc)) usage(argv[0]);
      s->set(s->takes_value ? argv[++i] : nullptr);
    }
  }

 private:
  struct Spec {
    const char* name;
    bool takes_value;
    std::function<void(const char*)> set;
  };

  const Spec* find(const char* arg) const {
    for (const Spec& s : specs_) {
      if (std::strcmp(s.name, arg) == 0) return &s;
    }
    return nullptr;
  }

  [[noreturn]] void usage(const char* prog) const {
    std::fprintf(stderr, "usage: %s", prog);
    for (const Spec& s : specs_) {
      std::fprintf(stderr, s.takes_value ? " [%s N]" : " [%s]", s.name);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  std::vector<Spec> specs_;
};

}  // namespace benchutil
