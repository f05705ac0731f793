#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/alloc_counter.h"
#include "common/thread_pool.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"

namespace speck::bench {

std::vector<Measurement> run_suite(
    const std::vector<gen::CorpusEntry>& corpus,
    const std::vector<std::unique_ptr<SpGemmAlgorithm>>& algorithms,
    bool verify) {
  std::vector<Measurement> out;
  for (const gen::CorpusEntry& entry : corpus) {
    const offset_t products = entry.products();
    const Csr oracle = verify ? gustavson_spgemm(entry.a, entry.b) : Csr();
    for (const auto& algorithm : algorithms) {
      Measurement m;
      m.algorithm = algorithm->name();
      m.matrix = entry.name;
      m.products = products;
      SpGemmResult result = algorithm->multiply(entry.a, entry.b);
      m.status = result.status;
      if (result.ok()) {
        m.seconds = result.seconds;
        m.gflops = result.gflops(products);
        m.peak_memory_bytes = result.peak_memory_bytes;
        m.timeline = result.timeline;
        if (verify) {
          const auto diff = compare(result.c, oracle);
          SPECK_REQUIRE(!diff.has_value(), "algorithm " + m.algorithm +
                                               " produced a wrong result on " +
                                               m.matrix + ": " + diff->description);
        }
      }
      out.push_back(std::move(m));
    }
  }
  return out;
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  std::ostringstream os;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    os << ' ';
    std::string cell = cells[i];
    if (static_cast<int>(cell.size()) > width) cell.resize(static_cast<std::size_t>(width));
    os << cell;
    for (int pad = static_cast<int>(cell.size()); pad < width; ++pad) os << ' ';
  }
  std::puts(os.str().c_str());
}

std::string format_double(double v, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

std::string format_bytes_mb(std::size_t bytes) {
  return format_double(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double wall_seconds(const std::function<void()>& fn) {
  const double start = steady_seconds();
  fn();
  return steady_seconds() - start;
}

std::map<std::string, double> best_seconds_per_matrix(
    const std::vector<Measurement>& measurements) {
  std::map<std::string, double> best;
  for (const Measurement& m : measurements) {
    if (m.status != SpGemmStatus::kOk) continue;
    auto [it, inserted] = best.emplace(m.matrix, m.seconds);
    if (!inserted) it->second = std::min(it->second, m.seconds);
  }
  return best;
}

}  // namespace speck::bench

namespace speck::bench {

void write_csv(const std::string& path, const std::vector<Measurement>& measurements) {
  std::ofstream out(path);
  SPECK_REQUIRE(out.good(), "cannot open CSV output file: " + path);
  out << "algorithm,matrix,products,status,seconds,gflops,peak_memory_bytes\n";
  for (const Measurement& m : measurements) {
    out << m.algorithm << ',' << m.matrix << ',' << m.products << ','
        << (m.status == SpGemmStatus::kOk
                ? "ok"
                : m.status == SpGemmStatus::kOutOfMemory ? "oom" : "unsupported")
        << ',' << m.seconds << ',' << m.gflops << ',' << m.peak_memory_bytes
        << '\n';
  }
}

}  // namespace speck::bench

namespace speck::bench {

std::string ascii_chart(const std::vector<std::string>& series_names,
                        const std::vector<std::vector<double>>& series,
                        int height, bool log_scale) {
  SPECK_REQUIRE(series_names.size() == series.size(),
                "one name per series required");
  SPECK_REQUIRE(height >= 2, "chart height must be at least 2");
  static constexpr char kSymbols[] = "*o+x#@%&";
  std::size_t width = 0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& s : series) {
    width = std::max(width, s.size());
    for (const double v : s) {
      if (v <= 0.0 && log_scale) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (width == 0 || !(lo < hi)) return "(no data)\n";
  const auto scale = [&](double v) {
    if (log_scale) {
      return (std::log(v) - std::log(lo)) / (std::log(hi) - std::log(lo));
    }
    return (v - lo) / (hi - lo);
  };

  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(width * 2, ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char symbol = kSymbols[si % (sizeof(kSymbols) - 1)];
    for (std::size_t x = 0; x < series[si].size(); ++x) {
      const double v = series[si][x];
      if (v <= 0.0 && log_scale) continue;
      const auto y = static_cast<std::size_t>(
          std::clamp(scale(v), 0.0, 1.0) * (height - 1) + 0.5);
      grid[static_cast<std::size_t>(height - 1) - y][x * 2] = symbol;
    }
  }

  std::ostringstream os;
  os << format_double(hi, 2) << " +" << '\n';
  for (const auto& line : grid) os << "  |" << line << '\n';
  os << format_double(lo, 2) << " +" << std::string(width * 2, '-') << '\n';
  os << "   legend:";
  for (std::size_t si = 0; si < series_names.size(); ++si) {
    os << ' ' << kSymbols[si % (sizeof(kSymbols) - 1)] << '=' << series_names[si];
  }
  os << '\n';
  return os.str();
}

}  // namespace speck::bench

namespace speck::bench {

GateArgs::GateArgs(std::vector<int> threads, std::vector<int> quick_threads)
    : threads(std::move(threads)), quick_threads_(std::move(quick_threads)) {}

GateArgs& GateArgs::flag(std::string name, double value, std::optional<double> quick) {
  flags_.push_back({std::move(name), value, quick, Kind::kReal, {}});
  return *this;
}

GateArgs& GateArgs::count_flag(std::string name, std::uint64_t value,
                               std::optional<std::uint64_t> quick) {
  std::optional<double> quick_value;
  if (quick) quick_value = static_cast<double>(*quick);
  flags_.push_back(
      {std::move(name), static_cast<double>(value), quick_value, Kind::kCount, {}});
  return *this;
}

GateArgs& GateArgs::switch_flag(std::string name) {
  flags_.push_back({std::move(name), 0.0, {}, Kind::kSwitch, {}});
  return *this;
}

GateArgs& GateArgs::text_flag(std::string name) {
  flags_.push_back({std::move(name), 0.0, {}, Kind::kText, {}});
  return *this;
}

namespace {

/// The value of `text` if it is decimal digits only and at most `max`.
std::optional<double> parse_count(const char* text, std::uint64_t max) {
  if (*text == '\0' || std::strspn(text, "0123456789") != std::strlen(text)) return {};
  errno = 0;
  const std::uint64_t n = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE || n > max) return {};
  return static_cast<double>(n);
}

/// The value of `text` if it is one finite number.
std::optional<double> parse_real(const char* text) {
  char* end = nullptr;
  const double x = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(x)) return {};
  return x;
}

}  // namespace

bool GateArgs::parse(int argc, const char* const* argv) {
  constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 53;  // exact in a double
  constexpr std::uint64_t kMaxThreads = 1024;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick" && !quick_threads_.empty()) {
      quick = true;
      threads = quick_threads_;
      for (Flag& f : flags_) f.value = f.quick.value_or(f.value);
      continue;
    }
    const auto f = std::find_if(flags_.begin(), flags_.end(),
                                [&](const Flag& g) { return g.name == arg; });
    if (f != flags_.end() && f->kind == Kind::kSwitch) {
      f->value = 1.0;
      continue;
    }
    const char* text = i + 1 < argc ? argv[++i] : "";
    if (arg == "--threads") {
      const std::optional<double> n = parse_count(text, kMaxThreads);
      if (n && *n >= 1) {
        threads = {static_cast<int>(*n)};
        continue;
      }
    } else if (f != flags_.end() && f->kind == Kind::kText) {
      if (*text != '\0') {
        f->text = text;
        continue;
      }
    } else if (f != flags_.end()) {
      const std::optional<double> value =
          f->kind == Kind::kCount ? parse_count(text, kMaxCount) : parse_real(text);
      if (value) {
        f->value = *value;
        continue;
      }
    }
    std::fprintf(stderr, "usage: %s%s [--threads N]", argv[0],
                 quick_threads_.empty() ? "" : " [--quick]");
    for (const Flag& g : flags_) {
      if (g.kind == Kind::kSwitch) {
        std::fprintf(stderr, " [%s]", g.name.c_str());
      } else if (g.kind == Kind::kText) {
        std::fprintf(stderr, " [%s PATH]", g.name.c_str());
      } else {
        std::fprintf(stderr, " [%s %g]", g.name.c_str(), g.value);
      }
    }
    std::fprintf(stderr, "\n");
    return false;
  }
  return true;
}

const GateArgs::Flag& GateArgs::find(std::string_view name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return f;
  }
  throw std::logic_error("unregistered bench flag " + std::string(name));
}

double GateArgs::get(std::string_view name) const { return find(name).value; }

const std::string& GateArgs::text(std::string_view name) const {
  return find(name).text;
}

GateArgs report_args() { return GateArgs({default_thread_count()}, {}); }

int apply_report_args(GateArgs& args, int argc, char** argv) {
  if (!args.parse(argc, argv)) return 0;
  set_global_thread_count(args.threads.front());
  return args.threads.front();
}

int apply_report_args(int argc, char** argv) {
  GateArgs args = report_args();
  return apply_report_args(args, argc, argv);
}

void emit(const std::string& key, double value) {
  std::printf("%s=%.6g\n", key.c_str(), value);
}

void emit_count(const std::string& key, std::size_t value) {
  std::printf("%s=%zu\n", key.c_str(), value);
}

void emit_point(const std::string& label) { std::printf("point=%s\n", label.c_str()); }

namespace {

/// Linear interpolation between the order statistics around q*(n-1).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

PairedRatio time_paired(std::size_t units, std::size_t rounds,
                        const std::function<void(std::size_t)>& a,
                        const std::function<void(std::size_t)>& b,
                        const std::function<double()>& clock) {
  const auto timed = [&](const std::function<void(std::size_t)>& side, std::size_t unit) {
    const double start = clock();
    side(unit);
    return clock() - start;
  };
  PairedRatio out;
  for (std::size_t round = 0; round < rounds; ++round) {
    double a_round = 0.0;
    double b_round = 0.0;
    for (std::size_t unit = 0; unit < units; ++unit) {
      if ((unit + round) % 2 == 0) {
        a_round += timed(a, unit);
        b_round += timed(b, unit);
      } else {
        b_round += timed(b, unit);
        a_round += timed(a, unit);
      }
    }
    out.a_seconds += a_round;
    out.b_seconds += b_round;
    out.ratios.push_back(a_round / b_round);
  }
  std::vector<double> sorted = out.ratios;
  std::sort(sorted.begin(), sorted.end());
  out.median = quantile(sorted, 0.5);
  out.q1 = quantile(sorted, 0.25);
  out.q3 = quantile(sorted, 0.75);
  return out;
}

void emit_ratio(const std::string& key, const PairedRatio& ratio) {
  emit(key, ratio.median);
  if (ratio.ratios.size() < 2) return;  // one round has no spread to show
  emit(key + "_q1", ratio.q1);
  emit(key + "_q3", ratio.q3);
}

void require_ok(const SpGemmResult& result, const char* what, const std::string& name) {
  if (!result.ok()) {
    throw std::runtime_error(std::string(what) + " failed on " + name + ": " +
                             result.failure_reason);
  }
}

void require_complete(const SpeckPlan& plan, const char* what, const std::string& name) {
  if (!plan.complete) {
    throw std::runtime_error(std::string(what) + " failed on " + name + ": " +
                             plan.incomplete_reason);
  }
}

bool zero_alloc_gate(std::size_t allocs, const char* what) {
  // A probe allocation outside any block body: the counting operator new
  // bumps the thread's event counter, the default one leaves it alone.
  const std::size_t before = detail::alloc_events_now();
  void* volatile probe = ::operator new(1);
  ::operator delete(probe);
  if (detail::alloc_events_now() == before) {
    std::fprintf(stderr, "FAIL: %s: the counting operator new is not linked in\n", what);
    return false;
  }
  if (allocs != 0) {
    std::fprintf(stderr, "FAIL: %s performed %zu heap allocations\n", what, allocs);
    return false;
  }
  return true;
}

bool floor_gate(const char* what, double ratio, double floor) {
  if (ratio >= floor) return true;
  std::fprintf(stderr, "FAIL: %s %.3f < %.3f\n", what, ratio, floor);
  return false;
}

int run_gate(const std::function<bool()>& body) {
  try {
    if (body()) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("gate=pass\n");
  return 0;
}

int run_gate(const std::vector<int>& threads, const std::function<bool(int)>& point) {
  return run_gate([&] {
    bool failed = false;
    for (const int t : threads) {
      emit_point("threads" + std::to_string(t));
      emit_count("threads", static_cast<std::size_t>(t));
      failed = point(t) || failed;
      emit_point("");
    }
    return failed;
  });
}

}  // namespace speck::bench
