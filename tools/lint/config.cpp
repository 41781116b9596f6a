#include "lint/config.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace chiron::lint {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Strips a trailing `# comment` that is not inside a quoted string.
std::string strip_comment(const std::string& line) {
  bool in_str = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') in_str = !in_str;
    if (line[i] == '#' && !in_str) return line.substr(0, i);
  }
  return line;
}

int parse_int(const std::string& v, int lineno) {
  CHIRON_CHECK_MSG(!v.empty(), "layers.toml line " << lineno
                                                   << ": empty value");
  std::size_t pos = 0;
  int out = 0;
  try {
    out = std::stoi(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  CHIRON_CHECK_MSG(pos == v.size(), "layers.toml line "
                                        << lineno << ": '" << v
                                        << "' is not an integer");
  return out;
}

std::string parse_string(const std::string& v, int lineno) {
  CHIRON_CHECK_MSG(v.size() >= 2 && v.front() == '"' && v.back() == '"',
                   "layers.toml line " << lineno << ": '" << v
                                       << "' is not a quoted string");
  return v.substr(1, v.size() - 2);
}

std::vector<std::string> parse_array(const std::string& v, int lineno) {
  CHIRON_CHECK_MSG(v.size() >= 2 && v.front() == '[' && v.back() == ']',
                   "layers.toml line " << lineno << ": '" << v
                                       << "' is not a [..] array");
  std::vector<std::string> out;
  std::string body = v.substr(1, v.size() - 2);
  std::string cur;
  bool in_str = false;
  for (char c : body) {
    if (c == '"') {
      in_str = !in_str;
      cur.push_back(c);
    } else if (c == ',' && !in_str) {
      const std::string item = trim(cur);
      if (!item.empty()) out.push_back(parse_string(item, lineno));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  const std::string item = trim(cur);
  if (!item.empty()) out.push_back(parse_string(item, lineno));
  return out;
}

std::string quote_join(const std::vector<std::string>& v) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ", ";
    os << '"' << v[i] << '"';
  }
  os << "]";
  return os.str();
}

}  // namespace

Config parse_config(const std::string& toml_text) {
  Config c;
  std::istringstream in(toml_text);
  std::string raw;
  std::string section;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;
    if (line.front() == '[') {
      CHIRON_CHECK_MSG(line.back() == ']', "layers.toml line "
                                               << lineno
                                               << ": unterminated section");
      section = trim(line.substr(1, line.size() - 2));
      CHIRON_CHECK_MSG(section == "layers" || section == "locks" ||
                           section == "hotpath",
                       "layers.toml line " << lineno << ": unknown section ["
                                           << section << "]");
      continue;
    }
    const std::size_t eq = line.find('=');
    CHIRON_CHECK_MSG(eq != std::string::npos,
                     "layers.toml line " << lineno << ": expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    CHIRON_CHECK_MSG(!key.empty(), "layers.toml line " << lineno
                                                       << ": empty key");
    if (section == "layers") {
      CHIRON_CHECK_MSG(c.layers.find(key) == c.layers.end(),
                       "layers.toml line " << lineno << ": duplicate module '"
                                           << key << "'");
      c.layers[key] = parse_int(val, lineno);
    } else if (section == "locks") {
      std::vector<std::string>* dst = nullptr;
      if (key == "modules") dst = &c.lock_modules;
      else if (key == "hierarchy") dst = &c.lock_hierarchy;
      else if (key == "forbidden") dst = &c.lock_forbidden;
      CHIRON_CHECK_MSG(dst != nullptr, "layers.toml line "
                                           << lineno << ": unknown locks key '"
                                           << key << "'");
      CHIRON_CHECK_MSG(dst->empty(), "layers.toml line "
                                         << lineno << ": duplicate key '" << key
                                         << "'");
      *dst = parse_array(val, lineno);
    } else if (section == "hotpath") {
      std::vector<std::string>* dst = nullptr;
      if (key == "allocators") dst = &c.hot_allocators;
      else if (key == "members") dst = &c.hot_members;
      else if (key == "types") dst = &c.hot_types;
      CHIRON_CHECK_MSG(dst != nullptr, "layers.toml line "
                                           << lineno
                                           << ": unknown hotpath key '" << key
                                           << "'");
      CHIRON_CHECK_MSG(dst->empty(), "layers.toml line "
                                         << lineno << ": duplicate key '" << key
                                         << "'");
      *dst = parse_array(val, lineno);
    } else {
      CHIRON_CHECK_MSG(false, "layers.toml line "
                                  << lineno
                                  << ": key outside any [section]: " << key);
    }
  }
  return c;
}

Config load_config(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  CHIRON_CHECK_MSG(in.good(),
                   "chiron_lint: cannot read config " << path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_config(ss.str());
}

std::string to_toml(const Config& c) {
  std::ostringstream os;
  os << "[layers]\n";
  for (const auto& [mod, layer] : c.layers) {
    os << mod << " = " << layer << "\n";
  }
  os << "\n[locks]\n";
  os << "modules = " << quote_join(c.lock_modules) << "\n";
  os << "hierarchy = " << quote_join(c.lock_hierarchy) << "\n";
  os << "forbidden = " << quote_join(c.lock_forbidden) << "\n";
  os << "\n[hotpath]\n";
  os << "allocators = " << quote_join(c.hot_allocators) << "\n";
  os << "members = " << quote_join(c.hot_members) << "\n";
  os << "types = " << quote_join(c.hot_types) << "\n";
  return os.str();
}

const Config& default_config() {
  static const Config c = [] {
    Config cfg;
    // Mirrors tools/lint/layers.toml — the ConfigMatchesShippedToml test
    // pins the two against each other.
    cfg.layers = {
        {"common", 0},  {"runtime", 1},  {"obs", 1},      {"faults", 2},
        {"tensor", 2},  {"sysmodel", 2}, {"data", 3},     {"nn", 3},
        {"fl", 4},      {"rl", 4},       {"adversary", 4}, {"core", 5},
        {"baselines", 6}, {"serve", 6},  {"lint", 7},
    };
    cfg.lock_modules = {"serve", "runtime"};
    cfg.lock_hierarchy = {"mu_"};
    cfg.lock_forbidden = {"price_batch", "adopt",      "mean_batch",
                          "value_batch", "matmul",     "matmul_bt",
                          "matmul_at",   "forward",    "backward",
                          "evaluate",    "local_train"};
    cfg.hot_allocators = {"malloc", "calloc", "realloc", "strdup"};
    cfg.hot_members = {"resize", "push_back", "emplace_back", "reserve",
                       "append"};
    cfg.hot_types = {"vector", "string", "ostringstream", "stringstream",
                     "to_string"};
    return cfg;
  }();
  return c;
}

}  // namespace chiron::lint
