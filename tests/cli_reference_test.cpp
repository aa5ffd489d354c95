// Anti-rot check for the README's command-line reference: the set of
// flags `step --help` prints must equal the set of flags documented in
// README.md § "Command-line reference". Add a flag to the CLI without
// documenting it (or vice versa) and this test names the offender.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace {

std::string run_help() {
  const std::string cmd = std::string(STEP_CLI_PATH) + " --help 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "cannot run " << cmd;
  if (pipe == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  pclose(pipe);
  return out;
}

std::string read_readme_reference_section() {
  std::ifstream in(STEP_README_PATH);
  EXPECT_TRUE(in.good()) << "cannot open " << STEP_README_PATH;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string all = ss.str();
  const std::string heading = "## Command-line reference";
  const std::size_t start = all.find(heading);
  EXPECT_NE(start, std::string::npos)
      << "README.md lacks a '" << heading << "' section";
  if (start == std::string::npos) return {};
  // The section ends at the next markdown heading of any level.
  std::size_t end = all.find("\n#", start + heading.size());
  if (end == std::string::npos) end = all.size();
  return all.substr(start, end - start);
}

/// Extracts CLI flag tokens: whitespace-delimited words starting with '-'
/// followed by a letter, trimmed of trailing punctuation. "--stats",
/// "-op", "-qbf-timeout" match; prose, "<or|and|xor>" or numbers do not.
std::set<std::string> extract_flags(const std::string& text) {
  std::set<std::string> flags;
  std::istringstream is(text);
  std::string tok;
  while (is >> tok) {
    while (!tok.empty() &&
           (tok.back() == ',' || tok.back() == '.' || tok.back() == ')' ||
            tok.back() == ';' || tok.back() == '`')) {
      tok.pop_back();
    }
    while (!tok.empty() && (tok.front() == '(' || tok.front() == '`')) {
      tok.erase(tok.begin());
    }
    if (tok.size() < 2 || tok[0] != '-') continue;
    const std::size_t body = tok[1] == '-' ? 2 : 1;
    if (body >= tok.size() ||
        !std::isalpha(static_cast<unsigned char>(tok[body]))) {
      continue;
    }
    if (tok.find_first_not_of(
            "-abcdefghijklmnopqrstuvwxyz0123456789") != std::string::npos) {
      continue;  // not a plain flag token (e.g. "<luby|ema>", em-dashes)
    }
    flags.insert(tok);
  }
  return flags;
}

TEST(CliReference, HelpAndReadmeDocumentTheSameFlags) {
  const std::set<std::string> help_flags = extract_flags(run_help());
  const std::set<std::string> readme_flags =
      extract_flags(read_readme_reference_section());
  ASSERT_FALSE(help_flags.empty());
  ASSERT_FALSE(readme_flags.empty());

  std::set<std::string> undocumented, stale;
  std::set_difference(help_flags.begin(), help_flags.end(),
                      readme_flags.begin(), readme_flags.end(),
                      std::inserter(undocumented, undocumented.begin()));
  std::set_difference(readme_flags.begin(), readme_flags.end(),
                      help_flags.begin(), help_flags.end(),
                      std::inserter(stale, stale.begin()));
  for (const std::string& f : undocumented) {
    ADD_FAILURE() << "flag printed by `step --help` but missing from the"
                     " README reference: " << f;
  }
  for (const std::string& f : stale) {
    ADD_FAILURE() << "flag documented in README but not printed by"
                     " `step --help`: " << f;
  }
}

TEST(CliReference, HelpMentionsEverySubcommand) {
  const std::string help = run_help();
  for (const char* cmd : {"decompose", "resynth", "stats"}) {
    EXPECT_NE(help.find(cmd), std::string::npos) << cmd;
  }
  // The solver knobs must be part of the printed reference.
  for (const char* flag : {"-lbd-core", "-lbd-tier2", "-conflicts"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
