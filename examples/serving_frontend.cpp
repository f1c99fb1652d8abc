// Serving front-end demo: a live index service over the regular
// HB+-tree. A handful of client threads issue point lookups and range
// queries while another applies a rolling stream of updates; the
// epoch-swapped snapshot pair (src/serve/snapshot.h) keeps reads
// consistent and non-blocking throughout. Prints the server's stats
// report at the end.

#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_support/serve_runner.h"
#include "serve/server.h"
#include "workload/paper.h"

using namespace hbtree;

int main() {
  const std::size_t n = 1 << 18;
  const std::uint64_t seed = 42;
  sim::PlatformSpec platform = sim::PlatformSpec::Parse("m1");

  std::printf("building a %zu-key index service...\n", n);
  auto data = workload::GenerateDataset<Key64>(n, seed);
  serve::ServerOptions options =
      bench::CalibratedServerOptions(platform, data, seed + 1,
                                     /*bucket_size=*/4096);
  Status create_status;
  auto server_ptr = serve::Server<Key64>::Create(options, data, &create_status);
  if (server_ptr == nullptr) {
    std::fprintf(stderr, "server creation failed: %s\n",
                 create_status.message().c_str());
    return 1;
  }
  serve::Server<Key64>& server = *server_ptr;

  // One blocking lookup and one range query, served end to end.
  serve::ReadResult<Key64> one = server.SubmitLookup(data[7].key).get();
  std::printf("lookup key %llu -> found=%d value=%llu\n",
              static_cast<unsigned long long>(data[7].key), one.lookup.found,
              static_cast<unsigned long long>(one.lookup.value));
  auto range = server.Range(data[100].key, 8);
  std::printf("range from key %llu -> %zu pairs\n",
              static_cast<unsigned long long>(data[100].key), range.size());

  // Concurrent phase: three lookup clients + one update client.
  auto queries = workload::MakeLookupQueries(data, seed + 2);
  auto updates = workload::MakeUpdateBatch(data, 16 * 1024, 0.8, seed + 3);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<serve::ReadResult<Key64>>> window;
      for (std::size_t i = 0; i < 32 * 1024; ++i) {
        window.push_back(
            server.SubmitLookup(queries[(c + 3 * i) % queries.size()]));
        if (window.size() == 512) {
          for (auto& f : window) f.get();
          window.clear();
        }
      }
      for (auto& f : window) f.get();
    });
  }
  clients.emplace_back([&] {
    std::vector<std::future<serve::UpdateResult>> pending;
    for (const auto& u : updates) pending.push_back(server.SubmitUpdate(u));
    for (auto& f : pending) f.get();
  });
  for (auto& t : clients) t.join();

  // Shutdown() evaluates the SLOs the stats print.
  server.Shutdown();
  std::printf("%s\n", server.Stats().ToString().c_str());
  return 0;
}
