// Randomized malformed-BLIF smoke test: the parser must reject or accept
// every mutated input cleanly — throw turbosyn::Error with a useful message,
// or parse successfully — and must never crash, corrupt memory (run this
// under ASan/UBSan in CI) or hang. Every input is also read by the
// pre-rewrite line-by-line reader (oracle::read_blif_reference); the two
// must agree on the verdict, the diagnostic, the canonical form and the
// written BLIF, and any disagreement fails the run.
//
//   $ ./blif_fuzz_main [--seconds N] [--seed S]
//
// Mutations cover the malformed shapes seen in the wild: truncated files,
// flipped cover polarities, cover-row width mismatches, unknown directives,
// duplicated drivers, garbage after .end, random byte edits, line shuffles,
// CRLF line endings and '\' continuations. The corpus adds covers of 7-11
// inputs to the embedded samples. Every accepted circuit is additionally
// validated end-to-end by re-serializing it.

#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "netlist/blif.hpp"
#include "oracle.hpp"
#include "workloads/samples.hpp"

namespace {

using turbosyn::Rng;

std::string random_token(Rng& rng) {
  static const char* pool[] = {".names", ".latch", ".inputs", ".outputs", ".end",
                               ".model", ".clock", ".exdc",   "01-",      "a",
                               "b",      "o",     "1",        "0",        "-",
                               "\\",     "#x",    "q2",       "zz9"};
  return pool[rng.next_below(sizeof(pool) / sizeof(pool[0]))];
}

std::string mutate(const std::string& base, Rng& rng) {
  std::string s = base;
  if (s.empty()) return random_token(rng);  // fully truncated earlier round
  const int kind = static_cast<int>(rng.next_below(10));
  switch (kind) {
    case 0:  // truncate at a random byte (mid-token, mid-line, anywhere)
      s.resize(rng.next_below(s.size() + 1));
      break;
    case 1: {  // flip random bytes
      for (int i = 0; i < 4 && !s.empty(); ++i) {
        s[rng.next_below(s.size())] = static_cast<char>(rng.next_in(1, 126));
      }
      break;
    }
    case 2: {  // flip a cover polarity bit ('1' <-> '0') to mix polarities
      for (std::size_t i = 0; i < s.size(); ++i) {
        if ((s[i] == '1' || s[i] == '0') && rng.next_bool(0.2)) {
          s[i] = s[i] == '1' ? '0' : '1';
        }
      }
      break;
    }
    case 3: {  // widen or narrow a cover row (width mismatch)
      const auto pos = s.find("1 1");
      if (pos != std::string::npos) s.insert(pos, rng.next_bool() ? "1" : "1-0");
      break;
    }
    case 4:  // unknown directive
      s.insert(rng.next_below(s.size() + 1), "\n.subckt foo a=b\n");
      break;
    case 5:  // garbage after .end
      s += "\nleftover tokens after the end\n";
      break;
    case 6: {  // splice random tokens into a random line
      std::string line;
      const int n = static_cast<int>(rng.next_in(1, 6));
      for (int i = 0; i < n; ++i) line += random_token(rng) + " ";
      s.insert(rng.next_below(s.size() + 1), "\n" + line + "\n");
      break;
    }
    case 8: {  // CRLF line endings on some lines
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '\n' && rng.next_bool(0.5)) s.insert(i++, 1, '\r');
      }
      break;
    }
    case 9: {  // break a line with a '\' continuation, sometimes commented
      const std::size_t pos = s.find(' ', rng.next_below(s.size()));
      if (pos != std::string::npos) s.insert(pos, rng.next_bool() ? " \\\n" : " \\# c\n");
      break;
    }
    default: {  // duplicate a chunk (duplicate drivers / repeated sections)
      const std::size_t from = rng.next_below(s.size());
      const std::size_t len = rng.next_below(s.size() - from + 1);
      s.insert(rng.next_below(s.size() + 1), s.substr(from, len));
      break;
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace turbosyn;
  double seconds = 5.0;
  std::uint64_t seed = 42;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--seconds") seconds = std::atof(argv[i + 1]);
    if (flag == "--seed") seed = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
  }

  Rng rng(seed);
  std::vector<std::string> corpus = {counter3_blif(), pattern_fsm_blif(), traffic_light_blif(),
                                     gray_counter_blif()};
  for (const int arity : {7, 8, 9, 11}) {
    corpus.push_back(oracle::random_cover_blif(rng, arity, 4, arity % 2 == 0 ? '0' : '1'));
  }
  const auto start = std::chrono::steady_clock::now();
  long iterations = 0;
  long accepted = 0;
  long rejected = 0;
  long disagreements = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
         seconds) {
    std::string input = corpus[rng.next_below(corpus.size())];
    const int rounds = static_cast<int>(rng.next_in(1, 3));
    for (int i = 0; i < rounds; ++i) input = mutate(input, rng);
    try {
      const Circuit c = read_blif_string(input, "<fuzz>");
      // Accepted circuits must round-trip through the writer.
      (void)write_blif_string(c);
      ++accepted;
    } catch (const Error&) {
      ++rejected;  // clean rejection is the expected outcome
    }
    // Anything else (segfault, unhandled exception type, sanitizer report,
    // hang) fails the harness.
    if (const std::string diff = oracle::blif_reader_disagreement(input, "<fuzz>");
        !diff.empty()) {
      if (++disagreements <= 3) {
        std::fprintf(stderr, "blif_fuzz: disagreement with the reference reader: %s\n"
                             "--- input ---\n%s\n--- end ---\n",
                     diff.c_str(), input.c_str());
      }
    }
    ++iterations;
  }
  std::printf("blif_fuzz: %ld inputs in %.1fs (%ld accepted, %ld rejected, %ld disagreements),"
              " seed %llu\n",
              iterations, seconds, accepted, rejected, disagreements,
              static_cast<unsigned long long>(seed));
  return iterations > 0 && disagreements == 0 ? 0 : 1;
}
