// Content-addressed registry of compiled power models — the daemon's cache.
//
// One mutex guards a std::deque of entries (admission order, stable
// addresses) and a std::unordered_map from primary key to entry. A lookup
// is one hash probe plus one shared_ptr copy under the lock; admission is
// one probe plus one insert. A served request costs about 0.1 ms, so the
// lock is not where its time goes.
//
// Collision safety: the 64-bit primary key indexes the map; the independent
// 64-bit check hash is compared on every hit. Two distinct contents
// colliding on the primary key is detected (typed error) instead of
// silently serving the wrong macro's model; matching on both halves by
// accident requires a 128-bit collision.
//
// Persistence: save() writes one serialize-v2 model file per entry (each
// carrying its own CRC trailer) plus a CRC-tailed MANIFEST, all via
// atomic_write_file — a crash mid-persist leaves the previous snapshot
// intact. load() warm-starts from such a directory, skipping (and
// counting) entries whose model file is corrupt rather than refusing to
// boot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "power/power_model.hpp"
#include "serve/service.hpp"

namespace cfpm::serve {

class Registry {
 public:
  struct Entry {
    service::ModelId id;
    std::shared_ptr<const power::PowerModel> model;
    std::string circuit;     ///< display name (stats query)
    std::size_t nodes = 0;   ///< ADD size (0 for non-ADD kinds)
  };

  Registry() = default;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The model admitted under `id`, or nullptr when absent.
  /// Throws cfpm::Error when the primary key is admitted but the check
  /// hash differs (64-bit content-hash collision — serving would return
  /// the wrong model). Counts `registry.lookup.hit` / `registry.lookup.miss`.
  std::shared_ptr<const power::PowerModel> lookup(
      const service::ModelId& id) const;

  /// Admits a model. Idempotent: re-admitting an
  /// id already present returns false and changes nothing. Throws
  /// cfpm::Error on a primary-key collision (same key, different check) and
  /// cfpm::ContractError on a null model.
  bool admit(Entry entry);

  std::size_t size() const;

  /// Stable snapshot of the admitted entries, in admission order.
  std::vector<Entry> entries() const;

  /// Persists every serializable entry into `dir` (created if missing):
  /// <hex-id>.cfpm model files + MANIFEST, each written atomically.
  /// Entries whose model kind has no serializer (Con/Lin baselines) are
  /// skipped and counted in `serve.persist.skipped`. Failpoint:
  /// `serve.persist`.
  void save(const std::string& dir) const;

  /// Warm-starts from a directory written by save(). Returns the number of
  /// entries admitted. A missing directory or MANIFEST is a cold start
  /// (returns 0); a corrupt MANIFEST (CRC/format) throws ParseError; a
  /// corrupt or missing model file skips that entry and counts it in
  /// `serve.persist.rejected` — a damaged cache degrades to rebuilding,
  /// never to serving damaged bits.
  std::size_t load(const std::string& dir);

 private:
  mutable std::mutex mutex_;
  std::deque<Entry> entries_;  // admission order, stable addresses
  std::unordered_map<std::uint64_t, const Entry*> by_key_;  // id.key -> entry
};

}  // namespace cfpm::serve
