#ifndef SCUBA_TESTS_COMPRESS_LZ4_CORPUS_H_
#define SCUBA_TESTS_COMPRESS_LZ4_CORPUS_H_

#include <string>
#include <vector>

#include "util/random.h"

namespace scuba {

/// LZ4 inputs that exercise each part of the block format: empty and
/// one-byte blocks, long runs, repeated phrases, overlapping matches,
/// incompressible noise and mixed entropy. Shared by the liblz4 interop
/// tests and the pinned-output digests.
inline std::vector<std::string> Lz4Corpus() {
  std::vector<std::string> inputs;
  inputs.emplace_back();                       // empty
  inputs.emplace_back("a");                    // tiny literal
  inputs.emplace_back(100000, 'z');            // long run
  {
    std::string phrases;
    for (int i = 0; i < 3000; ++i) phrases += "GET /api/v2/users 200 OK ";
    inputs.push_back(std::move(phrases));      // repeated phrase
  }
  {
    std::string abc;
    for (int i = 0; i < 50000; ++i) abc.push_back("abc"[i % 3]);
    inputs.push_back(std::move(abc));          // overlapping matches
  }
  {
    Random random(41);
    std::string noise;
    for (int i = 0; i < 65536; ++i) {
      noise.push_back(static_cast<char>(random.Next() & 0xFF));
    }
    inputs.push_back(std::move(noise));        // incompressible
  }
  {
    Random random(43);
    std::string mixed;
    while (mixed.size() < 200000) {
      if (random.Bernoulli(0.6)) {
        mixed.append(1 + random.Uniform(100),
                     static_cast<char>('a' + random.Uniform(26)));
      } else {
        for (size_t i = 0; i < 1 + random.Uniform(40); ++i) {
          mixed.push_back(static_cast<char>(random.Next() & 0xFF));
        }
      }
    }
    inputs.push_back(std::move(mixed));        // mixed entropy
  }
  return inputs;
}

}  // namespace scuba

#endif  // SCUBA_TESTS_COMPRESS_LZ4_CORPUS_H_
