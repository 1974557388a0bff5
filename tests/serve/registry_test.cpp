// Registry contracts: lookups stay correct while admissions run, every
// admitted id resolves to its own model whatever the key shape, collisions
// are rejected instead of served, and the persisted snapshot warm-starts
// bit-identically — or not at all when corrupt. The concurrency tests run
// under TSan in CI (suite name matches the tsan job's -R filter).
#include "serve/registry.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/library.hpp"
#include "power/add_model.hpp"
#include "serve/service.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace cfpm::serve {
namespace {

using AddModelPtr = std::shared_ptr<const power::AddPowerModel>;

/// `n` small ADD models to admit: copies of the exact c17 model. Each copy
/// is a distinct object, so a lookup is checked by identity. Copies share
/// one manager and touch its reference counts, so make them on one thread
/// before any concurrent use.
std::vector<AddModelPtr> c17_models(std::size_t n) {
  static const power::AddPowerModel c17 = power::AddPowerModel::build(
      netlist::gen::c17(), netlist::GateLibrary::standard());
  std::vector<AddModelPtr> models;
  models.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    models.push_back(std::make_shared<const power::AddPowerModel>(c17));
  }
  return models;
}

service::ModelId id_of(std::uint64_t key) {
  return {key, key ^ 0x5a5a5a5a5a5a5a5aull};
}

Registry::Entry entry_of(std::uint64_t key, AddModelPtr model) {
  Registry::Entry e;
  e.id = id_of(key);
  e.model = std::move(model);
  e.circuit = "m" + std::to_string(key);
  return e;
}

/// The entry the daemon admits for a clean build reply.
Registry::Entry entry_of(const service::BuildReply& built,
                         std::string circuit) {
  Registry::Entry e;
  e.id = built.id;
  e.model = std::dynamic_pointer_cast<const power::AddPowerModel>(built.model);
  e.circuit = std::move(circuit);
  e.nodes = built.model_nodes;
  return e;
}

std::string fresh_dir(const char* tag) {
  static std::atomic<int> counter{0};
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("cfpm-registry-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
        std::to_string(counter.fetch_add(1))))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Registry, AdmitThenLookup) {
  Registry registry;
  const std::vector<AddModelPtr> two = c17_models(2);
  EXPECT_EQ(registry.lookup({1, 2}), nullptr);
  EXPECT_TRUE(registry.admit(entry_of(1, two[0])));
  EXPECT_TRUE(registry.admit(entry_of(2, two[1])));
  ASSERT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.lookup(id_of(1)), two[0]);
  EXPECT_EQ(registry.lookup(id_of(2)), two[1]);
  EXPECT_EQ(registry.lookup({3, 4}), nullptr);

  // Key shapes that stress a hash index more than uniform random keys do:
  // sequential ids, high-bit-only ids, then 1000 random ones.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 200; ++i) keys.push_back(i);
  for (std::uint64_t i = 0; i < 100; ++i) keys.push_back((i + 1) << 56);
  SplitMix64 rng(0x1234);
  while (keys.size() < 1300) {
    const std::uint64_t k = rng.next();
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
  }
  const std::vector<AddModelPtr> models = c17_models(keys.size());
  Registry shaped;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(shaped.admit(entry_of(keys[i], models[i])));
  }
  ASSERT_EQ(shaped.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(shaped.lookup(id_of(keys[i])), models[i]) << "key " << keys[i];
  }
  SplitMix64 outsiders(0x888);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t k = outsiders.next();
    if (std::find(keys.begin(), keys.end(), k) != keys.end()) continue;
    EXPECT_EQ(shaped.lookup(id_of(k)), nullptr);
  }
  EXPECT_EQ(shaped.lookup(id_of(200)), nullptr);
  EXPECT_EQ(shaped.lookup(id_of(101ull << 56)), nullptr);
  const std::vector<Registry::Entry> listed = shaped.entries();
  ASSERT_EQ(listed.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(listed[i].id.key, keys[i]) << "admission order at " << i;
  }
}

TEST(Registry, ReadmissionIsIdempotent) {
  Registry registry;
  const std::vector<AddModelPtr> two = c17_models(2);
  EXPECT_TRUE(registry.admit(entry_of(7, two[0])));
  EXPECT_FALSE(registry.admit(entry_of(7, two[1])));
  EXPECT_EQ(registry.size(), 1u);
  // First admission wins — the id is the content, so a re-admission of the
  // same id must carry the same bits anyway.
  EXPECT_EQ(registry.lookup(id_of(7)), two[0]);
}

TEST(Registry, PrimaryKeyCollisionRejected) {
  Registry registry;
  const std::vector<AddModelPtr> two = c17_models(2);
  EXPECT_TRUE(registry.admit(entry_of(7, two[0])));
  Registry::Entry collider = entry_of(7, two[1]);
  collider.id.check ^= 1;  // same 64-bit key, different content
  EXPECT_THROW(registry.admit(std::move(collider)), Error);
  service::ModelId wrong = id_of(7);
  wrong.check ^= 1;
  EXPECT_THROW((void)registry.lookup(wrong), Error);
}

TEST(Registry, NullModelRejected) {
  Registry registry;
  EXPECT_THROW(registry.admit(entry_of(1, nullptr)), ContractError);
}

// The TSan-critical test: readers hammer lookups (hits and misses) while a
// writer admits entries one by one, republishing the index each time. Every
// read must see either a fully published entry or a miss — never a torn
// index — and an entry observed once must stay visible.
TEST(RegistryConcurrency, LookupsRaceAdmissions) {
  Registry registry;
  constexpr std::uint64_t kEntries = 64;
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> published{0};

  const std::vector<AddModelPtr> models = c17_models(kEntries);
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t seen_high = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t limit = published.load(std::memory_order_acquire);
        for (std::uint64_t k = 1; k <= kEntries; ++k) {
          const auto m = registry.lookup(id_of(k));
          if (k <= limit && m == nullptr) {
            // Published entries must never disappear.
            failures.fetch_add(1);
          }
          if (m != nullptr) {
            if (m != models[k - 1]) failures.fetch_add(1);  // wrong model
            seen_high = std::max(seen_high, k);
          }
        }
      }
      (void)r;
      (void)seen_high;
    });
  }

  for (std::uint64_t k = 1; k <= kEntries; ++k) {
    ASSERT_TRUE(registry.admit(entry_of(k, models[k - 1])));
    published.store(k, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.size(), kEntries);
}

TEST(RegistryConcurrency, ConcurrentAdmittersSerialize) {
  Registry registry;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 16;
  const std::vector<AddModelPtr> models = c17_models(kThreads * kPerThread);
  const auto key_of = [](int t, std::uint64_t i) {
    return static_cast<std::uint64_t>(t) * 1000 + i;
  };
  std::vector<std::thread> admitters;
  for (int t = 0; t < kThreads; ++t) {
    admitters.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        registry.admit(entry_of(key_of(t, i), models[t * kPerThread + i]));
      }
    });
  }
  for (std::thread& t : admitters) t.join();
  EXPECT_EQ(registry.size(), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(registry.lookup(id_of(key_of(t, i))),
                models[t * kPerThread + i]);
    }
  }
}

TEST(RegistryPersistence, WarmRestartRoundTrip) {
  const std::string dir = fresh_dir("warm");
  service::BuildRequest request;
  request.netlist = netlist::gen::c17();
  request.options.max_nodes = 0;
  const service::BuildReply built = service::build(request);

  // A second model whose display name holds spaces (read_bench_file names a
  // model after its file stem, e.g. "my design"): the manifest must give
  // the whole name back, not its first word.
  request.options.max_nodes = 8;
  const service::BuildReply spaced = service::build(request);
  ASSERT_NE(spaced.id, built.id);

  Registry registry;
  ASSERT_TRUE(registry.admit(entry_of(built, "c17")));
  ASSERT_TRUE(registry.admit(entry_of(spaced, "my design  v2")));
  registry.save(dir);

  Registry reloaded;
  EXPECT_EQ(reloaded.load(dir), 2u);
  const auto model = reloaded.lookup(built.id);
  ASSERT_NE(model, nullptr);
  const std::vector<Registry::Entry> listed = reloaded.entries();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].circuit, "c17");
  EXPECT_EQ(listed[1].circuit, "my design  v2");
  EXPECT_EQ(listed[1].nodes, spaced.model_nodes);

  service::EvalRequest eval;
  eval.vectors = 300;
  const service::EvalReply a = service::evaluate(*built.model, eval);
  const service::EvalReply b = service::evaluate(*model, eval);
  EXPECT_EQ(a.total_ff, b.total_ff);
  EXPECT_EQ(a.average_ff, b.average_ff);
  EXPECT_EQ(a.peak_ff, b.peak_ff);
  std::filesystem::remove_all(dir);
}

TEST(RegistryPersistence, MissingDirectoryIsAColdStart) {
  Registry registry;
  EXPECT_EQ(registry.load(fresh_dir("missing")), 0u);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistryPersistence, CorruptModelFileIsSkippedNotServed) {
  const std::string dir = fresh_dir("corrupt-model");
  service::BuildRequest request;
  request.netlist = netlist::gen::c17();
  const service::BuildReply built = service::build(request);
  Registry registry;
  ASSERT_TRUE(registry.admit(entry_of(built, "c17")));
  registry.save(dir);

  // Flip bytes in the middle of the model file; its CRC trailer must catch
  // it and load() must skip the entry rather than serve damaged bits.
  const std::string model_path = dir + "/" + built.id.to_hex() + ".cfpm";
  ASSERT_TRUE(std::filesystem::exists(model_path));
  {
    std::fstream f(model_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(model_path) / 2));
    f.write("\xde\xad\xbe\xef", 4);
  }
  Registry reloaded;
  EXPECT_EQ(reloaded.load(dir), 0u);
  EXPECT_EQ(reloaded.lookup(built.id), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(RegistryPersistence, ForgedNodeCountIsSkippedAndCounted) {
  const std::string dir = fresh_dir("forged-count");
  service::BuildRequest request;
  request.netlist = netlist::gen::c17();
  const service::BuildReply good = service::build(request);
  request.options.max_nodes = 8;
  const service::BuildReply forged = service::build(request);
  Registry registry;
  for (const service::BuildReply* built : {&good, &forged}) {
    ASSERT_TRUE(registry.admit(entry_of(*built, "c17")));
  }
  registry.save(dir);

  // Declare a node count no reader could allocate for: the warm start must
  // skip that entry as unreadable, not fail with bad_alloc.
  const std::string path = dir + "/" + forged.id.to_hex() + ".cfpm";
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto pos = text.find("\nnodes ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos + 1, text.find('\n', pos + 1) - pos - 1,
               "nodes 100000000000");
  std::ofstream(path, std::ios::trunc) << text;

  const std::uint64_t rejected =
      metrics::snapshot().counter("serve.persist.rejected");
  Registry reloaded;
  EXPECT_EQ(reloaded.load(dir), 1u);
  EXPECT_NE(reloaded.lookup(good.id), nullptr);
  EXPECT_EQ(reloaded.lookup(forged.id), nullptr);
  EXPECT_EQ(metrics::snapshot().counter("serve.persist.rejected"),
            rejected + 1);
  std::filesystem::remove_all(dir);
}

TEST(RegistryPersistence, CorruptManifestRefusesToLoad) {
  const std::string dir = fresh_dir("corrupt-manifest");
  service::BuildRequest request;
  request.netlist = netlist::gen::c17();
  const service::BuildReply built = service::build(request);
  Registry registry;
  ASSERT_TRUE(registry.admit(entry_of(built, "c17")));
  registry.save(dir);

  // Corrupting the body must trip the manifest CRC.
  const std::string manifest_path = dir + "/MANIFEST";
  {
    std::fstream f(manifest_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(std::string("cfpm-registry").size()));
    f.write("X", 1);
  }
  Registry reloaded;
  EXPECT_THROW((void)reloaded.load(dir), ParseError);

  // Bytes appended after the crc trailer escape the CRC; the loader must
  // treat their mere presence as corruption rather than ignore them.
  registry.save(dir);  // restore a good manifest
  {
    std::ofstream f(manifest_path, std::ios::app);
    f << "model deadbeef tampered-after-trailer\n";
  }
  Registry reloaded_again;
  EXPECT_THROW((void)reloaded_again.load(dir), ParseError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cfpm::serve
