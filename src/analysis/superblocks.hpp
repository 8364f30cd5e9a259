// Superblock formation over the analysis CFG, and the cached front door
// to threaded-code compilation.
//
// The CFG carves the image into basic blocks at every landing site and
// terminator; the threaded engine wants the *opposite* granularity —
// maximal fall-through runs — because its per-op accounting prefixes only
// work when no superblock boundary splits an edge control is guaranteed
// to cross.  form_superblocks therefore glues CFG blocks back together
// along guaranteed fall-through seams (plain landing-site splits,
// conditional-branch fall-through paths) and absorbs Ud padding runs into
// the preceding superblock when its last op can fall into them.
#pragma once

#include <memory>
#include <vector>

#include "analysis/artifacts.hpp"
#include "analysis/cfg.hpp"
#include "sim/jit/compiled_program.hpp"

namespace xentry::analysis {

/// Derives the threaded engine's superblock tiling from a CFG of
/// `program`.  Throws std::invalid_argument when the CFG does not
/// describe this program (stale base/size) — the same fail-fast shape as
/// every other artifact-staleness guard.
std::vector<sim::jit::Superblock> form_superblocks(
    const ControlFlowGraph& cfg, const sim::Program& program);

/// Compiles `program` to threaded code through the process-wide
/// CodeCache, keyed by sim::program_text_signature: every machine and
/// campaign shard running the same program shares one immutable stream,
/// and the CFG is built only on a cache miss.
std::shared_ptr<const sim::jit::CompiledProgram> compile_threaded(
    const sim::Program& program);

/// As above, reusing the artifacts' CFG on a miss (the artifacts'
/// signature is the same cache key).
std::shared_ptr<const sim::jit::CompiledProgram> compile_threaded(
    const AnalysisArtifacts& artifacts);

}  // namespace xentry::analysis
