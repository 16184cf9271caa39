// Documentation checker, run as a ctest test (and by the CI docs job):
//
//   1. Every relative markdown link in the root-level *.md files and in
//      docs/ must resolve to a file or directory in the repo (external
//      http(s)/mailto links and pure #anchors are skipped; a #fragment on a
//      relative link is checked against the target file's existence only).
//   2. Every subdirectory of src/ must be mentioned by name (as "src/<dir>")
//      in docs/ARCHITECTURE.md — adding a subsystem without touring it in
//      the architecture doc fails the build.
//   3. Every metric name in the first column of a `| Metric |` table in
//      docs/OPERATIONS.md must be a string literal in src/, so the docs
//      cannot drift from what the one publisher names. A name with a
//      placeholder (`shard.<id>.actions_green`) needs only a literal that
//      ends with the text after the placeholder (`actions_green`).
//
// Usage: docs_check <repo root>
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Drop fenced code blocks (``` ... ```): C++ lambdas like `[](const X&)`
/// would otherwise parse as links.
std::string strip_code_fences(const std::string& text) {
  std::string out;
  bool in_fence = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (!in_fence) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

/// True when the `[` matching the `]` at `close` is an image link (`![`).
/// Image links are skipped: paper-text extracts (PAPERS.md) reference
/// figures that were never retrieved, and images are not navigation.
bool is_image_link(const std::string& text, std::size_t close) {
  int depth = 0;
  for (std::size_t j = close;; --j) {
    if (text[j] == ']') ++depth;
    if (text[j] == '[' && --depth == 0) return j > 0 && text[j - 1] == '!';
    if (j == 0) break;
  }
  return false;
}

/// Extract markdown link targets: the (...) of [text](target), tolerating
/// "(target "title")". Inline code and autolinks are not parsed — the repo's
/// docs only use the [text](target) form.
std::vector<std::string> link_targets(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] != ']' || text[i + 1] != '(') continue;
    if (is_image_link(text, i)) continue;
    const std::size_t start = i + 2;
    const std::size_t end = text.find(')', start);
    if (end == std::string::npos) continue;
    std::string target = text.substr(start, end - start);
    if (const std::size_t sp = target.find(' '); sp != std::string::npos) {
      target.resize(sp);  // strip an optional "title"
    }
    if (target.find('\n') != std::string::npos) continue;  // not a link
    if (!target.empty()) out.push_back(std::move(target));
  }
  return out;
}

/// The contents of every "..." string literal in a C++ source, skipping
/// // comments, character literals and digit separators (1'000).
void collect_literals(const std::string& src, std::vector<std::string>& out) {
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src.compare(i, 2, "//") == 0) {
      i = src.find('\n', i);
      if (i == std::string::npos) return;
    } else if (src[i] == '\'' && (i == 0 || !std::isalnum(static_cast<unsigned char>(src[i - 1])))) {
      i += src[i + 1] == '\\' ? 3 : 2;
    } else if (src[i] == '"') {
      std::string lit;
      for (++i; i < src.size() && src[i] != '"'; ++i) {
        if (src[i] == '\\') ++i;
        lit += src[i];
      }
      out.push_back(std::move(lit));
    }
  }
}

/// The backquoted names in the first column of every `| Metric |` table.
std::vector<std::string> documented_metrics(const std::string& text) {
  std::vector<std::string> out;
  bool in_table = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| Metric |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (line.rfind("|", 0) != 0) {
      in_table = false;
      continue;
    }
    if (!in_table) continue;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t open = cell.find('`'); open != std::string::npos;) {
      const std::size_t close = cell.find('`', open + 1);
      if (close == std::string::npos) break;
      out.push_back(cell.substr(open + 1, close - open - 1));
      open = cell.find('`', close + 1);
    }
  }
  return out;
}

bool is_external(const std::string& t) {
  return t.rfind("http://", 0) == 0 || t.rfind("https://", 0) == 0 ||
         t.rfind("mailto:", 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: docs_check <repo root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  int failures = 0;

  // Collect the markdown set: root-level *.md plus everything under docs/.
  std::vector<fs::path> md_files;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_regular_file() && entry.path().extension() == ".md") {
      md_files.push_back(entry.path());
    }
  }
  for (const auto& entry : fs::recursive_directory_iterator(root / "docs")) {
    if (entry.is_regular_file() && entry.path().extension() == ".md") {
      md_files.push_back(entry.path());
    }
  }

  std::size_t links_checked = 0;
  for (const fs::path& md : md_files) {
    const std::string text = strip_code_fences(slurp(md));
    for (const std::string& target : link_targets(text)) {
      if (is_external(target)) continue;
      std::string path = target;
      if (const std::size_t hash = path.find('#'); hash != std::string::npos) {
        path.resize(hash);        // keep the file part of file.md#anchor
        if (path.empty()) continue;  // same-file #anchor
      }
      ++links_checked;
      const fs::path resolved = md.parent_path() / path;
      if (!fs::exists(resolved)) {
        std::fprintf(stderr, "BROKEN LINK %s -> %s (resolved %s)\n",
                     md.lexically_relative(root).c_str(), target.c_str(),
                     resolved.lexically_normal().c_str());
        ++failures;
      }
    }
  }

  // Architecture coverage: every src/* subsystem must be toured.
  const fs::path arch = root / "docs" / "ARCHITECTURE.md";
  if (!fs::exists(arch)) {
    std::fprintf(stderr, "MISSING docs/ARCHITECTURE.md\n");
    ++failures;
  } else {
    const std::string text = slurp(arch);
    for (const auto& entry : fs::directory_iterator(root / "src")) {
      if (!entry.is_directory()) continue;
      const std::string mention = "src/" + entry.path().filename().string();
      if (text.find(mention) == std::string::npos) {
        std::fprintf(stderr, "UNDOCUMENTED SUBSYSTEM: %s not mentioned in docs/ARCHITECTURE.md\n",
                     mention.c_str());
        ++failures;
      }
    }
  }

  // Operations metric tables: every documented name is published from src/.
  std::vector<std::string> literals;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    const fs::path ext = entry.path().extension();
    if (entry.is_regular_file() && (ext == ".cc" || ext == ".h")) {
      collect_literals(slurp(entry.path()), literals);
    }
  }
  const std::vector<std::string> metrics =
      documented_metrics(slurp(root / "docs" / "OPERATIONS.md"));
  for (const std::string& name : metrics) {
    const std::size_t placeholder = name.rfind('>');
    std::string tail = placeholder == std::string::npos ? name : name.substr(placeholder + 1);
    if (placeholder != std::string::npos && tail.rfind(".", 0) == 0) tail.erase(0, 1);
    const bool found = std::any_of(literals.begin(), literals.end(), [&](const std::string& l) {
      return placeholder == std::string::npos ? l == tail : l.ends_with(tail);
    });
    if (!found) {
      std::fprintf(stderr, "UNPUBLISHED METRIC: docs/OPERATIONS.md names `%s`, no src/ literal %s\n",
                   name.c_str(), placeholder == std::string::npos ? "equals it" : "ends with its tail");
      ++failures;
    }
  }

  std::printf("docs_check: %zu markdown files, %zu relative links, %zu metric names, %d failure(s)\n",
              md_files.size(), links_checked, metrics.size(), failures);
  return failures == 0 ? 0 : 1;
}
