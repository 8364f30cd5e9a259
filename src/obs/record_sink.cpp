#include "obs/record_sink.hpp"

#include <cassert>
#include <filesystem>
#include <system_error>
#include <utility>

namespace xentry::obs {

std::string_view record_format_name(RecordFormat f) {
  switch (f) {
    case RecordFormat::kJsonl: return "jsonl";
    case RecordFormat::kBinary: return "bin";
  }
  return "jsonl";
}

std::optional<RecordFormat> record_format_from_name(std::string_view name) {
  if (name == "jsonl") return RecordFormat::kJsonl;
  if (name == "bin" || name == "binary") return RecordFormat::kBinary;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// ShardedFileSink

std::string ShardedFileSink::shard_path(std::string_view base, RecordFormat f,
                                        std::size_t shard) {
  std::string path(base);
  path += ".shard";
  path += std::to_string(shard);
  path += '.';
  path += record_format_name(f);
  return path;
}

ShardedFileSink::ShardedFileSink(Options opts)
    : buffer_bytes_(opts.buffer_bytes == 0 ? 1 : opts.buffer_bytes) {
  const bool resume = !opts.resume_offsets.empty();
  assert(!resume || opts.resume_offsets.size() == opts.shard_count);
  shards_.resize(opts.shard_count);
  if (!opts.active_shards.empty()) {
    for (Shard& sh : shards_) sh.active = false;
    for (std::size_t s : opts.active_shards) {
      if (s < shards_.size()) shards_[s].active = true;
    }
  }
  for (std::size_t s = 0; s < opts.shard_count; ++s) {
    Shard& sh = shards_[s];
    sh.path = shard_path(opts.base_path, opts.format, s);
    if (!sh.active) continue;  // a unit this campaign does not run
    sh.buffer.reserve(buffer_bytes_);
    if (resume) {
      // Truncate to the last durable (journaled) offset: anything past it
      // is a torn tail from the killed run and must not survive.  An
      // offset past the file's end names bytes that were never written
      // (a corrupt journal or a truncated file); resize_file would
      // zero-extend the file, so the shard fails instead.
      const std::uint64_t off = opts.resume_offsets[s];
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(sh.path, ec);
      if (ec || off > size) {
        sh.failed = true;
        continue;
      }
      std::filesystem::resize_file(sh.path, off, ec);
      if (ec) {
        sh.failed = true;
        continue;
      }
      sh.file = std::fopen(sh.path.c_str(), "ab");
      sh.offset = off;
    } else {
      sh.file = std::fopen(sh.path.c_str(), "wb");
    }
    if (sh.file == nullptr) sh.failed = true;
  }
}

ShardedFileSink::~ShardedFileSink() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    flush(s);
    if (shards_[s].file != nullptr) std::fclose(shards_[s].file);
  }
}

bool ShardedFileSink::append(std::size_t shard, std::string_view frame) {
  Shard& sh = shards_[shard];
  if (sh.failed || !sh.active) {
    ++sh.stats.dropped;
    return false;
  }
  if (sh.buffer.size() + frame.size() > buffer_bytes_ && !sh.buffer.empty()) {
    ++sh.stats.backpressure_flushes;
    flush(shard);
    if (sh.failed) {
      ++sh.stats.dropped;
      return false;
    }
  }
  sh.buffer.append(frame.data(), frame.size());
  ++sh.stats.appends;
  sh.stats.appended_bytes += frame.size();
  // Oversized frame: the buffer can't bound it, push it straight out.
  if (sh.buffer.size() > buffer_bytes_) flush(shard);
  return !sh.failed;
}

void ShardedFileSink::flush(std::size_t shard) {
  Shard& sh = shards_[shard];
  if (sh.buffer.empty() || sh.failed || sh.file == nullptr) return;
  const std::size_t n =
      std::fwrite(sh.buffer.data(), 1, sh.buffer.size(), sh.file);
  if (n != sh.buffer.size() || std::fflush(sh.file) != 0) {
    sh.failed = true;
    return;
  }
  sh.offset += sh.buffer.size();
  ++sh.stats.flushes;
  sh.stats.flushed_bytes += sh.buffer.size();
  sh.buffer.clear();
}

std::uint64_t ShardedFileSink::offset(std::size_t shard) const {
  return shards_[shard].offset;
}

std::uint64_t ShardedFileSink::buffered_bytes(std::size_t shard) const {
  return shards_[shard].buffer.size();
}

void ShardedFileSink::discard(std::size_t shard) {
  Shard& sh = shards_[shard];
  sh.stats.dropped += sh.buffer.empty() ? 0 : 1;
  sh.buffer.clear();
}

const SinkShardStats& ShardedFileSink::stats(std::size_t shard) const {
  return shards_[shard].stats;
}

bool ShardedFileSink::ok() const {
  for (const Shard& sh : shards_) {
    if (sh.failed) return false;
  }
  return true;
}

const std::string& ShardedFileSink::path(std::size_t shard) const {
  return shards_[shard].path;
}

// ---------------------------------------------------------------------------
// MemoryRecordSink

MemoryRecordSink::MemoryRecordSink(Options opts) : opts_(std::move(opts)) {
  if (opts_.buffer_bytes == 0) opts_.buffer_bytes = 1;
  shards_.resize(opts_.shard_count);
}

bool MemoryRecordSink::append(std::size_t shard, std::string_view frame) {
  Shard& sh = shards_[shard];
  if (opts_.max_shard_bytes != 0 &&
      sh.durable.size() + sh.buffer.size() + frame.size() >
          opts_.max_shard_bytes) {
    ++sh.stats.dropped;
    return false;
  }
  if (sh.buffer.size() + frame.size() > opts_.buffer_bytes &&
      !sh.buffer.empty()) {
    ++sh.stats.backpressure_flushes;
    flush(shard);
  }
  sh.buffer.append(frame.data(), frame.size());
  ++sh.stats.appends;
  sh.stats.appended_bytes += frame.size();
  if (sh.buffer.size() > opts_.buffer_bytes) flush(shard);
  return true;
}

void MemoryRecordSink::flush(std::size_t shard) {
  Shard& sh = shards_[shard];
  if (sh.buffer.empty()) return;
  sh.durable += sh.buffer;
  ++sh.stats.flushes;
  sh.stats.flushed_bytes += sh.buffer.size();
  sh.buffer.clear();
}

std::uint64_t MemoryRecordSink::offset(std::size_t shard) const {
  return shards_[shard].durable.size();
}

std::uint64_t MemoryRecordSink::buffered_bytes(std::size_t shard) const {
  return shards_[shard].buffer.size();
}

void MemoryRecordSink::discard(std::size_t shard) {
  Shard& sh = shards_[shard];
  sh.stats.dropped += sh.buffer.empty() ? 0 : 1;
  sh.buffer.clear();
}

const SinkShardStats& MemoryRecordSink::stats(std::size_t shard) const {
  return shards_[shard].stats;
}

const std::string& MemoryRecordSink::data(std::size_t shard) const {
  return shards_[shard].durable;
}

}  // namespace xentry::obs
