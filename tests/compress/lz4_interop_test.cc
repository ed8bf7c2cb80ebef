// Interop: our from-scratch LZ4 block codec must speak the SAME format as
// the reference liblz4. Both directions are cross-validated against the
// system library (loaded via dlopen so no headers are required); if the
// library is absent the tests skip.

#include <dlfcn.h>
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compress/lz4.h"
#include "compress/lz4_corpus.h"

namespace scuba {
namespace {

using Lz4CompressFn = int (*)(const char*, char*, int, int);
using Lz4DecompressFn = int (*)(const char*, char*, int, int);

struct ReferenceLz4 {
  void* handle = nullptr;
  Lz4CompressFn compress = nullptr;
  Lz4DecompressFn decompress = nullptr;
};

const ReferenceLz4& Reference() {
  static const ReferenceLz4& ref = *[] {
    auto* r = new ReferenceLz4();
    r->handle = dlopen("liblz4.so.1", RTLD_NOW);
    if (r->handle != nullptr) {
      r->compress = reinterpret_cast<Lz4CompressFn>(
          dlsym(r->handle, "LZ4_compress_default"));
      r->decompress = reinterpret_cast<Lz4DecompressFn>(
          dlsym(r->handle, "LZ4_decompress_safe"));
    }
    return r;
  }();
  return ref;
}

bool HaveReference() {
  return Reference().compress != nullptr && Reference().decompress != nullptr;
}

TEST(Lz4InteropTest, ReferenceDecodesOurOutput) {
  if (!HaveReference()) GTEST_SKIP() << "liblz4.so.1 not available";
  for (const std::string& input : Lz4Corpus()) {
    ByteBuffer ours;
    lz4::Compress(Slice(input), &ours);
    if (input.empty()) continue;  // reference rejects zero-size dst

    std::string decoded(input.size(), '\0');
    int n = Reference().decompress(
        reinterpret_cast<const char*>(ours.data()), decoded.data(),
        static_cast<int>(ours.size()), static_cast<int>(decoded.size()));
    ASSERT_EQ(n, static_cast<int>(input.size()))
        << "reference rejected our block (input size " << input.size()
        << ")";
    EXPECT_EQ(decoded, input);
  }
}

TEST(Lz4InteropTest, WeDecodeReferenceOutput) {
  if (!HaveReference()) GTEST_SKIP() << "liblz4.so.1 not available";
  for (const std::string& input : Lz4Corpus()) {
    if (input.empty()) continue;
    std::vector<char> compressed(lz4::CompressBound(input.size()));
    int n = Reference().compress(input.data(), compressed.data(),
                                 static_cast<int>(input.size()),
                                 static_cast<int>(compressed.size()));
    ASSERT_GT(n, 0);

    std::string decoded(input.size(), '\0');
    Status s = lz4::Decompress(
        Slice(compressed.data(), static_cast<size_t>(n)),
        reinterpret_cast<uint8_t*>(decoded.data()), decoded.size());
    ASSERT_TRUE(s.ok()) << s.ToString() << " (input size " << input.size()
                        << ")";
    EXPECT_EQ(decoded, input);
  }
}

TEST(Lz4InteropTest, CompressionRatiosAreComparable) {
  if (!HaveReference()) GTEST_SKIP() << "liblz4.so.1 not available";
  // Our greedy matcher should land within 2x of the reference's output
  // size on compressible data (same format, simpler heuristics).
  std::string input;
  for (int i = 0; i < 5000; ++i) {
    input += "svc_" + std::to_string(i % 37) + " GET /api 200 12ms\n";
  }
  ByteBuffer ours;
  lz4::Compress(Slice(input), &ours);
  std::vector<char> theirs(lz4::CompressBound(input.size()));
  int n = Reference().compress(input.data(), theirs.data(),
                               static_cast<int>(input.size()),
                               static_cast<int>(theirs.size()));
  ASSERT_GT(n, 0);
  EXPECT_LT(ours.size(), static_cast<size_t>(n) * 2);
  EXPECT_LT(ours.size(), input.size() / 3);
}

}  // namespace
}  // namespace scuba
