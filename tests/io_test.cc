#include "io/tree_io.h"
#include "workload/paper.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>


namespace hbtree {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

template <typename K>
class TreeIoTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(TreeIoTypedTest, KeyTypes);

TYPED_TEST(TreeIoTypedTest, RoundTripPreservesEveryLookup) {
  using K = TypeParam;
  const std::string path = TempPath("roundtrip.hbt");
  PageRegistry registry;
  typename ImplicitBTree<K>::Config config;
  config.hybrid_layout = true;
  ImplicitBTree<K> original(config, &registry);
  auto data = workload::GenerateDataset<K>(50000, /*seed=*/1);
  original.Build(data);
  ASSERT_TRUE(SaveTreeFile(original, path).ok());

  PageRegistry registry2;
  ImplicitBTree<K> loaded(config, &registry2);
  Status status = LoadTreeFile(&loaded, path);
  ASSERT_TRUE(status.ok()) << status.message();

  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.height(), original.height());
  loaded.Validate();
  for (std::size_t i = 0; i < data.size(); i += 7) {
    auto result = loaded.Search(data[i].key);
    ASSERT_TRUE(result.found) << i;
    EXPECT_EQ(result.value, data[i].value);
  }
  EXPECT_FALSE(loaded.Search(KeyTraits<K>::kMax - 1).found);
  std::remove(path.c_str());
}

TEST(TreeIo, CorruptionIsDetected) {
  const std::string path = TempPath("corrupt.hbt");
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  tree.Build(workload::GenerateDataset<Key64>(5000, 2));
  ASSERT_TRUE(SaveTreeFile(tree, path).ok());

  // Flip one byte in the middle of the body.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(1000);
    char byte;
    file.seekg(1000);
    file.get(byte);
    file.seekp(1000);
    file.put(static_cast<char>(byte ^ 0x40));
  }
  ImplicitBTree<Key64> loaded(config, &registry);
  Status status = LoadTreeFile(&loaded, path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TreeIo, KeyWidthMismatchRejected) {
  const std::string path = TempPath("width.hbt");
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config64;
  ImplicitBTree<Key64> tree64(config64, &registry);
  tree64.Build(workload::GenerateDataset<Key64>(1000, 3));
  ASSERT_TRUE(SaveTreeFile(tree64, path).ok());

  ImplicitBTree<Key32>::Config config32;
  ImplicitBTree<Key32> tree32(config32, &registry);
  Status status = LoadTreeFile(&tree32, path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("key width"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TreeIo, LayoutMismatchRejected) {
  const std::string path = TempPath("layout.hbt");
  PageRegistry registry;
  ImplicitBTree<Key64>::Config cpu_config;  // fanout 9
  ImplicitBTree<Key64> cpu_tree(cpu_config, &registry);
  cpu_tree.Build(workload::GenerateDataset<Key64>(1000, 4));
  ASSERT_TRUE(SaveTreeFile(cpu_tree, path).ok());

  ImplicitBTree<Key64>::Config hb_config;
  hb_config.hybrid_layout = true;  // fanout 8
  ImplicitBTree<Key64> hb_tree(hb_config, &registry);
  Status status = LoadTreeFile(&hb_tree, path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("layout"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TreeIo, TruncatedFileRejected) {
  const std::string path = TempPath("trunc.hbt");
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  tree.Build(workload::GenerateDataset<Key64>(5000, 5));
  ASSERT_TRUE(SaveTreeFile(tree, path).ok());
  // Truncate the file to half its size.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    auto half = static_cast<std::size_t>(in.tellg()) / 2;
    std::vector<char> head(half);
    in.seekg(0);
    in.read(head.data(), static_cast<std::streamsize>(half));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(head.data(), static_cast<std::streamsize>(half));
  }
  ImplicitBTree<Key64> loaded(config, &registry);
  EXPECT_FALSE(LoadTreeFile(&loaded, path).ok());
  std::remove(path.c_str());
}

TEST(TreeIo, MissingFileRejected) {
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  EXPECT_FALSE(LoadTreeFile(&tree, "/nonexistent/path.hbt").ok());
}

TEST(TreeIo, NotAnIndexFileRejected) {
  const std::string path = TempPath("garbage.hbt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is definitely not a serialized index file, promise";
  }
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  Status status = LoadTreeFile(&tree, path);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

TYPED_TEST(TreeIoTypedTest, EmptyTreeRoundTrip) {
  using K = TypeParam;
  const std::string path = TempPath("empty.hbt");
  PageRegistry registry;
  typename ImplicitBTree<K>::Config config;
  ImplicitBTree<K> original(config, &registry);
  original.Build({});
  EXPECT_EQ(original.size(), 0u);
  EXPECT_EQ(original.height(), 0);
  EXPECT_FALSE(original.Search(K{7}).found);
  ASSERT_TRUE(SaveTreeFile(original, path).ok());

  PageRegistry registry2;
  ImplicitBTree<K> loaded(config, &registry2);
  // Pre-populate so the load provably replaces the contents.
  loaded.Build(workload::GenerateDataset<K>(100, /*seed=*/11));
  Status status = LoadTreeFile(&loaded, path);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.height(), 0);
  EXPECT_FALSE(loaded.Search(K{7}).found);
  EXPECT_FALSE(loaded.Search(K{0}).found);
  KeyValue<K> out[4];
  EXPECT_EQ(loaded.RangeScan(K{0}, 4, out), 0);
  std::remove(path.c_str());
}

TYPED_TEST(TreeIoTypedTest, SingleKeyRoundTrip) {
  using K = TypeParam;
  const std::string path = TempPath("single.hbt");
  PageRegistry registry;
  typename ImplicitBTree<K>::Config config;
  ImplicitBTree<K> original(config, &registry);
  original.Build({KeyValue<K>{K{42}, K{1042}}});
  ASSERT_TRUE(SaveTreeFile(original, path).ok());

  PageRegistry registry2;
  ImplicitBTree<K> loaded(config, &registry2);
  Status status = LoadTreeFile(&loaded, path);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(loaded.size(), 1u);
  loaded.Validate();
  auto hit = loaded.Search(K{42});
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.value, K{1042});
  EXPECT_FALSE(loaded.Search(K{41}).found);
  EXPECT_FALSE(loaded.Search(K{43}).found);
  std::remove(path.c_str());
}

TEST(TreeIo, ExactlyOnePageISegmentRoundTrip) {
  // 1920 Key64 pairs at fanout 9 give 480 leaf lines -> inner levels of
  // 54, 6, and 1 nodes, padded to 54 + 9 + 1 = 64 allocated nodes: the
  // I-segment fills one 4K page exactly, exercising the boundary where
  // the segment size is a whole number of pages with no tail.
  const std::string path = TempPath("onepage.hbt");
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  config.inner_page = PageSize::k4K;
  config.leaf_page = PageSize::k4K;
  ImplicitBTree<Key64> original(config, &registry);
  auto data = workload::GenerateDataset<Key64>(1920, /*seed=*/6);
  original.Build(data);
  ASSERT_EQ(original.i_segment_bytes(), 4096u);
  ASSERT_TRUE(SaveTreeFile(original, path).ok());

  PageRegistry registry2;
  ImplicitBTree<Key64> loaded(config, &registry2);
  Status status = LoadTreeFile(&loaded, path);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(loaded.i_segment_bytes(), 4096u);
  loaded.Validate();
  for (const auto& kv : data) {
    auto result = loaded.Search(kv.key);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.value, kv.value);
  }
  std::remove(path.c_str());
}

TEST(TreeIo, CorruptedHeaderRejected) {
  const std::string path = TempPath("badheader.hbt");
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  tree.Build(workload::GenerateDataset<Key64>(5000, 7));
  ASSERT_TRUE(SaveTreeFile(tree, path).ok());
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }

  // One flipped byte in each header field must yield a clean error. The
  // offsets cover: magic, version, key width, layout flag, pair count,
  // and — critically — the *high* bytes of the segment lengths, which
  // must be caught by the file-size check before any allocation is
  // attempted (a 2^56-byte vector resize would take the process down).
  const std::size_t offsets[] = {0, 4, 8, 12, 16, 24, 31, 32, 39};
  for (std::size_t offset : offsets) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(pristine.data(),
                static_cast<std::streamsize>(pristine.size()));
    }
    {
      std::fstream file(path,
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekg(static_cast<std::streamoff>(offset));
      char byte = 0;
      file.get(byte);
      file.seekp(static_cast<std::streamoff>(offset));
      file.put(static_cast<char>(byte ^ 0x80));
    }
    ImplicitBTree<Key64> loaded(config, &registry);
    Status status = LoadTreeFile(&loaded, path);
    EXPECT_FALSE(status.ok()) << "flipped byte at offset " << offset;
  }
  std::remove(path.c_str());
}

TEST(Crc32c, KnownVector) {
  // RFC 3720 test vector: CRC32C("123456789") = 0xE3069283.
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
}

TEST(Crc32c, SeedChaining) {
  const char data[] = "abcdefgh";
  std::uint32_t whole = Crc32c(data, 8);
  std::uint32_t chained = Crc32c(data + 4, 4, Crc32c(data, 4));
  EXPECT_EQ(whole, chained);
}

}  // namespace
}  // namespace hbtree
