#include "perfbench/report.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

namespace perfbench {
namespace {

double TimevalS(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double ClockS(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double NowS() { return ClockS(CLOCK_MONOTONIC); }

double ThreadCpuS() { return ClockS(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuS() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return TimevalS(self.ru_utime) + TimevalS(self.ru_stime) + TimevalS(children.ru_utime) +
         TimevalS(children.ru_stime);
}

double PeakRssMib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

EnvSample SampleEnv() {
  EnvSample sample;
  if (std::FILE* stat = std::fopen("/proc/stat", "r")) {
    // cpu  user nice system idle iowait irq softirq steal ...
    unsigned long long fields[8] = {};
    if (std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &fields[0], &fields[1],
                    &fields[2], &fields[3], &fields[4], &fields[5], &fields[6],
                    &fields[7]) == 8) {
      for (const unsigned long long field : fields) {
        sample.total_ticks += field;
      }
      sample.steal_ticks = fields[7];
    }
    std::fclose(stat);
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  sample.nivcsw = self.ru_nivcsw;
  return sample;
}

void AddEnvMetrics(const EnvSample& from, const EnvSample& to, bool as_metrics,
                   Outcome* outcome) {
  const uint64_t total = to.total_ticks - from.total_ticks;
  const double steal = total > 0 ? static_cast<double>(to.steal_ticks - from.steal_ticks) /
                                       static_cast<double>(total)
                                 : 0.0;
  const double nivcsw = static_cast<double>(to.nivcsw - from.nivcsw);
  if (as_metrics) {
    outcome->Set("env.steal_frac", steal);
    outcome->Set("env.nivcsw", nivcsw);
  }
  outcome->params.Set("env.steal_frac", pad::JsonValue(steal));
  outcome->params.Set("env.nivcsw", pad::JsonValue(nivcsw));
}

bool LoadMetricList(const std::string& path, const std::string& key,
                    std::vector<MetricSpec>* specs, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  std::string parse_error;
  const std::optional<pad::JsonValue> root = pad::JsonParse(text.str(), &parse_error);
  if (!root.has_value()) {
    *error = path + ": " + parse_error;
    return false;
  }
  const pad::JsonValue* list = root->Get(key);
  if (list == nullptr || !list->is_array() || list->AsArray().empty()) {
    *error = path + ": no \"" + key + "\" list";
    return false;
  }
  specs->clear();
  for (const pad::JsonValue& metric : list->AsArray()) {
    const pad::JsonValue* name = metric.Get("name");
    const pad::JsonValue* unit = metric.Get("unit");
    if (name == nullptr || !name->is_string() || unit == nullptr || !unit->is_string()) {
      *error = path + ": a \"" + key + "\" entry lacks a string name or unit";
      return false;
    }
    specs->push_back(MetricSpec{name->AsString(), unit->AsString()});
  }
  return true;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

int32_t SpanRecorder::FindName(const char* name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name || std::strcmp(names_[i], name) == 0) {
      return static_cast<int32_t>(i);
    }
  }
  return -1;
}

int32_t SpanRecorder::NameId(const char* name) {
  const int32_t found = FindName(name);
  if (found >= 0) {
    return found;
  }
  names_.push_back(name);
  return static_cast<int32_t>(names_.size()) - 1;
}

int SpanRecorder::Begin(const char* name, int64_t trace_id, int parent) {
  const int32_t id = NameId(name);
  spans_.push_back(Span{trace_id, NowNs(), -1, id, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

double SpanRecorder::TotalS(const char* name) const {
  const int32_t id = FindName(name);
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == id) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) * 1e-9;
}

bool SpanRecorder::WriteJson(const std::string& path, std::string* error) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    *error = "cannot write " + path + ": " + std::strerror(errno);
    return false;
  }
  std::fputs("{\"names\": [", out);
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(out, "%s%s", i > 0 ? ", " : "", pad::JsonQuote(names_[i]).c_str());
  }
  std::fputs("],\n\"spans\": [", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%s[%lld, %d, %d, %lld, %lld]", i > 0 ? ",\n" : "\n",
                 static_cast<long long>(span.trace_id), span.name, span.parent,
                 static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns));
  }
  std::fputs("\n]}\n", out);
  const bool ok = std::ferror(out) == 0;
  if (std::fclose(out) != 0 || !ok) {
    *error = "short write to " + path;
    return false;
  }
  return true;
}

bool MakeDirs(const std::string& dir, std::string* error) {
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos != dir.size() && dir[pos] != '/') {
      continue;
    }
    const std::string prefix = dir.substr(0, pos);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      *error = "mkdir " + prefix + ": " + std::strerror(errno);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
