#include "serve/registry.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/io.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"

namespace cfpm::serve {

namespace {

constexpr std::string_view kManifestMagic = "cfpm-registry 1";

const metrics::Counter& c_hit() {
  static const metrics::Counter c("registry.lookup.hit");
  return c;
}
const metrics::Counter& c_miss() {
  static const metrics::Counter c("registry.lookup.miss");
  return c;
}

std::string collision_message(const service::ModelId& requested,
                              const service::ModelId& admitted) {
  return "registry: content-hash collision on key " + requested.to_hex() +
         " (admitted as " + admitted.to_hex() + ")";
}

}  // namespace

std::shared_ptr<const power::AddPowerModel> Registry::lookup(
    const service::ModelId& id) const {
  std::shared_ptr<const power::AddPowerModel> model;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_key_.find(id.key);
    if (it != by_key_.end()) {
      const Entry& e = *it->second;
      // Same 64-bit primary key, different content. Serving e.model would
      // hand the requester a model of some other netlist; refuse loudly.
      if (e.id.check != id.check) throw Error(collision_message(id, e.id));
      model = e.model;
    }
  }
  (model ? c_hit() : c_miss()).add();
  return model;
}

bool Registry::admit(Entry entry) {
  if (!entry.model) throw ContractError("Registry::admit: null model");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = by_key_.try_emplace(entry.id.key, nullptr);
  if (!inserted) {
    if (it->second->id.check == entry.id.check) return false;  // present
    throw Error(collision_message(entry.id, it->second->id));
  }
  try {
    entries_.push_back(std::move(entry));
  } catch (...) {
    by_key_.erase(it);
    throw;
  }
  it->second = &entries_.back();
  return true;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<Registry::Entry> Registry::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {entries_.begin(), entries_.end()};
}

void Registry::save(const std::string& dir) const {
  static const metrics::Counter c_saved("serve.persist.saved");
  CFPM_FAILPOINT("serve.persist");
  const std::vector<Entry> snapshot = entries();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError("registry: cannot create persist dir " + dir + ": " +
                  ec.message());
  }
  std::ostringstream manifest;
  manifest << kManifestMagic << "\n";
  for (const Entry& e : snapshot) {
    const std::string file = e.id.to_hex() + ".cfpm";
    atomic_write_file(dir + "/" + file,
                      [&](std::ostream& os) { e.model->save(os); });
    manifest << "model " << e.id.to_hex() << " " << e.nodes << " "
             << e.circuit << "\n";
    c_saved.add();
  }
  const std::string body = manifest.str();
  atomic_write_file(dir + "/MANIFEST", [&](std::ostream& os) {
    os << body << "crc " << Crc32::of(body) << "\n";
  });
}

std::size_t Registry::load(const std::string& dir) {
  static const metrics::Counter c_loaded("serve.persist.loaded");
  static const metrics::Counter c_rejected("serve.persist.rejected");
  std::ifstream manifest(dir + "/MANIFEST");
  if (!manifest) return 0;  // cold start

  std::ostringstream buffer;
  buffer << manifest.rdbuf();
  const std::string text = buffer.str();

  // Split the CRC trailer (last line) from the body it covers.
  const auto trailer_at = text.rfind("crc ");
  if (trailer_at == std::string::npos ||
      (trailer_at != 0 && text[trailer_at - 1] != '\n')) {
    throw ParseError("registry manifest: missing crc trailer");
  }
  const std::string body = text.substr(0, trailer_at);
  std::istringstream trailer(text.substr(trailer_at));
  std::string word;
  std::uint64_t stored_crc = 0;
  if (!(trailer >> word >> stored_crc) || word != "crc" ||
      stored_crc != Crc32::of(body)) {
    throw ParseError("registry manifest: crc mismatch (torn or corrupt)");
  }
  // The trailer is the last line: bytes appended after it escape the CRC,
  // so their presence is itself evidence of tampering or a torn write.
  if (trailer >> word) {
    throw ParseError("registry manifest: trailing bytes after crc trailer");
  }

  std::istringstream lines(body);
  std::string line;
  if (!std::getline(lines, line) || line != kManifestMagic) {
    throw ParseError("registry manifest: bad magic");
  }
  std::size_t admitted = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag, hex, circuit;
    std::size_t nodes = 0;
    if (!(fields >> tag >> hex >> nodes) || tag != "model") {
      throw ParseError("registry manifest: bad entry line: " + line);
    }
    // The display name is the rest of the line after one separator: names
    // may contain spaces (read_bench_file takes the file stem).
    if (fields.peek() == ' ') fields.get();
    std::getline(fields, circuit);
    const auto id = service::ModelId::from_hex(hex);
    if (!id) throw ParseError("registry manifest: bad model id: " + hex);

    // The model file carries its own serialize-v2 CRC trailer; a damaged
    // file loads as ParseError and the entry is rebuilt on demand instead
    // of being served corrupt.
    std::ifstream in(dir + "/" + hex + ".cfpm");
    if (!in) {
      c_rejected.add();
      continue;
    }
    try {
      auto model = std::make_shared<power::AddPowerModel>(
          power::AddPowerModel::load(in));
      Entry entry;
      entry.id = *id;
      entry.circuit = circuit;
      entry.nodes = nodes;
      entry.model = std::move(model);
      if (admit(std::move(entry))) {
        ++admitted;
        c_loaded.add();
      }
    } catch (const ParseError&) {
      c_rejected.add();
    }
  }
  return admitted;
}

}  // namespace cfpm::serve
