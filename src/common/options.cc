#include "src/common/options.h"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace pad {
namespace {

std::string Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

bool SplitKeyValue(std::string_view token, std::string* key, std::string* value,
                   std::string* error) {
  const size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    *error = "expected key=value, got '" + std::string(token) + "'";
    return false;
  }
  *key = Trim(token.substr(0, eq));
  *value = Trim(token.substr(eq + 1));
  if (key->empty()) {
    *error = "empty key in '" + std::string(token) + "'";
    return false;
  }
  return true;
}

}  // namespace

std::optional<Options> Options::ParseText(std::string_view text, std::string* error) {
  Options options;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    const std::string line = Trim(text.substr(pos, end - pos));
    pos = end + 1;
    if (line.empty() || line.front() == '#') {
      if (pos > text.size()) {
        break;
      }
      continue;
    }
    std::string key;
    std::string value;
    if (!SplitKeyValue(line, &key, &value, error)) {
      return std::nullopt;
    }
    options.values_[key] = value;
    if (pos > text.size()) {
      break;
    }
  }
  return options;
}

std::optional<Options> Options::Parse(int argc, char** argv, std::string* error) {
  Options file_options;
  Options cli_options;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--config") {
      if (i + 1 >= argc) {
        *error = "--config requires a path";
        return std::nullopt;
      }
      token = std::string("config=") + argv[++i];
    }
    std::string key;
    std::string value;
    if (!SplitKeyValue(token, &key, &value, error)) {
      return std::nullopt;
    }
    if (key == "config") {
      std::ifstream in(value);
      if (!in.good()) {
        *error = "cannot open config file '" + value + "'";
        return std::nullopt;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      auto parsed = ParseText(buffer.str(), error);
      if (!parsed.has_value()) {
        return std::nullopt;
      }
      for (const auto& [k, v] : parsed->values_) {
        file_options.values_[k] = v;
      }
    } else {
      cli_options.values_[key] = value;
    }
  }
  // Command line wins over file.
  for (const auto& [k, v] : cli_options.values_) {
    file_options.values_[k] = v;
  }
  return file_options;
}

std::string Options::GetString(const std::string& key, const std::string& fallback) const {
  read_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Options::GetDouble(const std::string& key, double fallback) const {
  read_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    RecordError(key, "is not a number");
    return fallback;
  }
  return value;
}

int Options::GetInt(const std::string& key, int fallback) const {
  const double value = GetDouble(key, static_cast<double>(fallback));
  // Casting a double outside int's range is undefined behaviour, so check
  // the range first; NaN fails both comparisons and lands here too.
  if (!(value >= static_cast<double>(std::numeric_limits<int>::min()) &&
        value <= static_cast<double>(std::numeric_limits<int>::max()))) {
    RecordError(key, "is out of range");
    return fallback;
  }
  const int as_int = static_cast<int>(value);
  if (static_cast<double>(as_int) != value) {
    RecordError(key, "is not an integer");
    return fallback;
  }
  return as_int;
}

bool Options::GetBool(const std::string& key, bool fallback) const {
  read_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  RecordError(key, "is not a boolean");
  return fallback;
}

void Options::RecordError(const std::string& key, const char* what) const {
  if (error_.empty()) {
    error_ = "option '" + key + "' " + what + " (value '" + values_.at(key) + "')";
  }
}

std::vector<std::string> Options::UnusedKeys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) {
      unused.push_back(key);
    }
  }
  return unused;
}

}  // namespace pad
