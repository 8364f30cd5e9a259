#include "analysis/superblocks.hpp"

#include <stdexcept>

#include "sim/jit/code_cache.hpp"
#include "sim/program.hpp"

namespace xentry::analysis {

std::vector<sim::jit::Superblock> form_superblocks(
    const ControlFlowGraph& cfg, const sim::Program& program) {
  if (cfg.base != program.base() || cfg.code_size != program.size()) {
    throw std::invalid_argument(
        "form_superblocks: CFG does not describe this program (stale "
        "base/size) — rebuild the analysis artifacts");
  }
  const std::size_t n = program.size();
  std::vector<sim::jit::Superblock> out;
  if (n == 0) return out;

  const sim::Addr base = program.base();
  const auto op_at = [&](std::size_t off) { return program.at(base + off).op; };

  // Candidate superblock tops: every CFG block leader, plus each Ud
  // padding slot (padding forms no CFG block but still needs a stream
  // slot so corrupted control flow landing there faults correctly).
  std::vector<bool> start(n, false);
  start[0] = true;
  for (const BasicBlock& b : cfg.blocks) start[b.first - base] = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (op_at(i) == sim::Opcode::Ud) start[i] = true;
  }
  // Glue: a candidate only stays a boundary when the preceding op cannot
  // fall into it.  This merges plain landing-site splits, conditional
  // branches' fall-through seams, and padding reachable by fall-through —
  // yielding maximal fall-through runs, the invariant jit::compile
  // re-validates.
  for (std::size_t i = 1; i < n; ++i) {
    if (start[i] && sim::jit::can_fall_through(op_at(i - 1))) start[i] = false;
  }

  for (std::size_t first = 0; first < n;) {
    std::size_t last = first;
    while (last + 1 < n && !start[last + 1]) ++last;
    out.push_back(sim::jit::Superblock{static_cast<std::uint32_t>(first),
                                       static_cast<std::uint32_t>(last)});
    first = last + 1;
  }
  return out;
}

std::shared_ptr<const sim::jit::CompiledProgram> compile_threaded(
    const sim::Program& program) {
  auto& cache = sim::jit::CodeCache::instance();
  if (auto hit = cache.find(sim::program_text_signature(program))) return hit;
  return cache.insert(sim::jit::compile(
      program, form_superblocks(build_cfg(program), program)));
}

std::shared_ptr<const sim::jit::CompiledProgram> compile_threaded(
    const AnalysisArtifacts& artifacts) {
  auto& cache = sim::jit::CodeCache::instance();
  if (auto hit = cache.find(artifacts.signature)) return hit;
  return cache.insert(sim::jit::compile(
      artifacts.program, form_superblocks(artifacts.cfg, artifacts.program)));
}

}  // namespace xentry::analysis
