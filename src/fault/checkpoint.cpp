#include "fault/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace xentry::fault {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Region words as a compact token string: hex values, zero runs as
/// "z<count>".  Machine images are mostly zero, so this keeps journal
/// lines small without a real compressor.
void encode_words(std::string& out, const std::vector<std::uint64_t>& words) {
  std::size_t i = 0;
  bool first = true;
  char buf[24];
  while (i < words.size()) {
    if (!first) out += ',';
    first = false;
    if (words[i] == 0) {
      std::size_t run = 1;
      while (i + run < words.size() && words[i + run] == 0) ++run;
      out += 'z';
      append_u64(out, run);
      i += run;
    } else {
      std::snprintf(buf, sizeof buf, "%" PRIx64, words[i]);
      out += buf;
      ++i;
    }
  }
}

bool decode_words(std::string_view text, std::vector<std::uint64_t>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view tok = text.substr(pos, end - pos);
    pos = end + 1;
    if (tok.empty()) return false;
    if (tok[0] == 'z') {
      std::uint64_t run = 0;
      for (char c : tok.substr(1)) {
        if (c < '0' || c > '9') return false;
        run = run * 10 + static_cast<std::uint64_t>(c - '0');
      }
      out.insert(out.end(), run, 0);
    } else {
      std::uint64_t v = 0;
      for (char c : tok) {
        std::uint64_t d = 0;
        if (c >= '0' && c <= '9') {
          d = static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          d = static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
          return false;
        }
        v = (v << 4) | d;
      }
      out.push_back(v);
    }
  }
  return true;
}

std::string header_line(const CheckpointHeader& h) {
  std::string line = "{\"type\":\"header\",\"seed\":";
  append_u64(line, h.seed);
  line += ",\"injections\":";
  append_u64(line, static_cast<std::uint64_t>(h.injections));
  line += ",\"shards\":";
  append_u64(line, static_cast<std::uint64_t>(h.shards));
  line += ",\"bias\":";
  append_double(line, h.activation_bias);
  line += ",\"warmup\":";
  append_u64(line, static_cast<std::uint64_t>(h.warmup_activations));
  line += ",\"gap\":";
  append_u64(line, static_cast<std::uint64_t>(h.stream_gap));
  line += ",\"importance\":";
  line += h.importance ? '1' : '0';
  line += ",\"every\":";
  append_u64(line, static_cast<std::uint64_t>(h.checkpoint_every));
  line += ",\"fmt\":";
  append_u64(line, h.records_format);
  // Only partitioned campaigns carry a unit assignment; omitting the key
  // keeps every other journal byte-identical to the unpartitioned format.
  if (!h.units.empty()) {
    line += ",\"units\":[";
    bool first = true;
    for (int u : h.units) {
      if (!first) line += ',';
      first = false;
      append_u64(line, static_cast<std::uint64_t>(u));
    }
    line += ']';
  }
  line += "}\n";
  return line;
}

std::string checkpoint_line(const ShardCheckpoint& c) {
  std::string line = "{\"type\":\"ckpt\",\"shard\":";
  append_u64(line, static_cast<std::uint64_t>(c.shard));
  line += ",\"iter\":";
  append_u64(line, c.iterations);
  line += ",\"records\":";
  append_u64(line, c.records_written);
  line += ",\"digest\":";
  append_u64(line, c.digest);
  line += ",\"eff\":";
  append_double(line, c.effective);
  line += ",\"sink_off\":";
  append_u64(line, c.sink_offset);
  line += ",\"snap_off\":";
  append_u64(line, c.snap_offset);
  line += ",\"snap_count\":";
  append_u64(line, c.snap_count);
  line += ",\"forensics\":";
  append_u64(line, c.forensics_counter);
  line += ",\"acts\":";
  append_u64(line, c.activations_generated);
  // RNG states are digits and spaces; region words are hex/commas — no
  // JSON escaping needed for any of these payloads.
  line += ",\"gen_rng\":\"";
  line += c.gen_rng;
  line += "\",\"main_rng\":\"";
  line += c.main_rng;
  line += "\",\"aux_rng\":\"";
  line += c.aux_rng;
  line += "\",\"tsc\":";
  append_u64(line, c.tsc);
  line += ",\"mem\":[";
  bool first = true;
  for (const std::vector<std::uint64_t>& region : c.memory) {
    if (!first) line += ',';
    first = false;
    line += '"';
    encode_words(line, region);
    line += '"';
  }
  line += "]}\n";
  return line;
}

}  // namespace

std::unique_ptr<CheckpointJournal> CheckpointJournal::create(
    const std::string& path, const CheckpointHeader& header) {
  auto journal = std::unique_ptr<CheckpointJournal>(new CheckpointJournal());
  journal->file_ = std::fopen(path.c_str(), "wb");
  if (journal->file_ == nullptr) return nullptr;
  const std::string line = header_line(header);
  if (std::fwrite(line.data(), 1, line.size(), journal->file_) != line.size() ||
      std::fflush(journal->file_) != 0) {
    journal->failed_ = true;
  }
  return journal;
}

std::unique_ptr<CheckpointJournal> CheckpointJournal::append_to(
    const std::string& path) {
  auto journal = std::unique_ptr<CheckpointJournal>(new CheckpointJournal());
  journal->file_ = std::fopen(path.c_str(), "ab");
  if (journal->file_ == nullptr) return nullptr;
  return journal;
}

CheckpointJournal::~CheckpointJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointJournal::append(const ShardCheckpoint& ckpt) {
  const std::string line = checkpoint_line(ckpt);
  const std::scoped_lock lock(mu_);
  if (file_ == nullptr || failed_) return;
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    failed_ = true;
  }
}

JournalContents read_journal(const std::string& path) {
  JournalContents out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::size_t pos = 0;
  bool have_header = false;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;  // torn tail
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::optional<obs::JsonValue> v = obs::parse_json(line);
    if (!v.has_value() || !v->is_object()) break;  // torn/corrupt: stop
    const std::string& type = v->get_string("type");
    if (!have_header) {
      if (type != "header") break;
      out.header.seed = v->get_uint("seed");
      out.header.injections = static_cast<int>(v->get_int("injections"));
      out.header.shards = static_cast<int>(v->get_int("shards"));
      out.header.activation_bias = v->get_double("bias");
      out.header.warmup_activations = static_cast<int>(v->get_int("warmup"));
      out.header.stream_gap = static_cast<int>(v->get_int("gap"));
      out.header.importance = v->get_int("importance") != 0;
      out.header.checkpoint_every = static_cast<int>(v->get_int("every"));
      out.header.records_format =
          static_cast<std::uint8_t>(v->get_uint("fmt"));
      if (const obs::JsonValue* units = v->get("units");
          units != nullptr && units->is_array()) {
        for (const obs::JsonValue& u : units->as_array()) {
          out.header.units.push_back(static_cast<int>(u.as_int()));
        }
      }
      if (out.header.shards <= 0) break;
      out.shards.resize(static_cast<std::size_t>(out.header.shards));
      have_header = true;
      out.valid = true;
      continue;
    }
    if (type != "ckpt") break;
    ShardCheckpoint c;
    c.shard = static_cast<int>(v->get_int("shard"));
    if (c.shard < 0 || c.shard >= out.header.shards) break;
    c.iterations = v->get_uint("iter");
    c.records_written = v->get_uint("records");
    c.digest = v->get_uint("digest");
    c.effective = v->get_double("eff");
    c.sink_offset = v->get_uint("sink_off");
    c.snap_offset = v->get_uint("snap_off");
    c.snap_count = v->get_uint("snap_count");
    c.forensics_counter = v->get_uint("forensics");
    c.activations_generated = v->get_uint("acts");
    c.gen_rng = v->get_string("gen_rng");
    c.main_rng = v->get_string("main_rng");
    c.aux_rng = v->get_string("aux_rng");
    c.tsc = v->get_uint("tsc");
    const obs::JsonValue* mem = v->get("mem");
    if (mem == nullptr || !mem->is_array()) break;
    bool mem_ok = true;
    for (const obs::JsonValue& region : mem->as_array()) {
      std::vector<std::uint64_t> words;
      if (!decode_words(region.as_string(), words)) {
        mem_ok = false;
        break;
      }
      c.memory.push_back(std::move(words));
    }
    if (!mem_ok) break;
    out.shards[static_cast<std::size_t>(c.shard)] = std::move(c);
  }
  return out;
}

std::string snapshot_sidecar_path(std::string_view checkpoint_path,
                                  int shard) {
  std::string path(checkpoint_path);
  path += ".shard";
  path += std::to_string(shard);
  path += ".snap.jsonl";
  return path;
}

void capture_machine(const hv::Machine& machine, ShardCheckpoint& out) {
  const hv::Machine::Snapshot snap = machine.snapshot();
  out.tsc = snap.tsc;
  out.memory.clear();
  out.memory.reserve(snap.memory.regions.size());
  for (const sim::Memory::Snapshot::RegionImage& r : snap.memory.regions) {
    out.memory.push_back(r.data);
  }
}

void restore_machine(hv::Machine& machine, const ShardCheckpoint& ckpt) {
  const std::vector<sim::Memory::Region>& regions =
      machine.memory().regions();
  if (ckpt.memory.size() != regions.size()) {
    throw std::runtime_error(
        "checkpoint: memory image has " + std::to_string(ckpt.memory.size()) +
        " regions but the machine maps " + std::to_string(regions.size()) +
        " — the journal was written under a different machine configuration");
  }
  hv::Machine::Snapshot snap;
  snap.tsc = ckpt.tsc;
  snap.memory.source_id = 0;  // foreign image: forces a full region copy
  snap.memory.regions.resize(ckpt.memory.size());
  for (std::size_t i = 0; i < ckpt.memory.size(); ++i) {
    if (ckpt.memory[i].size() != regions[i].data.size()) {
      throw std::runtime_error(
          "checkpoint: region " + std::to_string(i) + " has " +
          std::to_string(ckpt.memory[i].size()) + " words but the machine's " +
          regions[i].name + " region holds " +
          std::to_string(regions[i].data.size()) +
          " — the journal was written under a different machine "
          "configuration");
    }
    snap.memory.regions[i].data = ckpt.memory[i];
  }
  machine.restore(snap);
}

std::string rng_state_string(const std::mt19937_64& rng) {
  std::ostringstream os;
  os << rng;
  return os.str();
}

bool rng_state_from_string(std::mt19937_64& rng, const std::string& state) {
  std::istringstream is(state);
  is >> rng;
  return !is.fail();
}

}  // namespace xentry::fault
