// Static verification of assembled programs.
//
// Handler authors make the same mistakes hypervisor authors do: branches
// into padding, calls to mid-function addresses, falling off the end of a
// function into the inter-function Ud gap.  The verifier checks a Program
// before it ever runs, so microvisor bugs surface as build-time
// diagnostics rather than as mysterious "fault-free" traps that would
// poison every detection statistic.
//
// The implementation lives in the analysis library (src/analysis): the
// verifier walks the same basic-block CFG the control-flow-integrity
// detector replays against at runtime, so branch-target legality,
// landing-site rules, and verifier diagnostics share one source of truth.
// Linking xentry_analysis is what provides verify_program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/program.hpp"

namespace xentry::sim {

struct VerifierIssue {
  enum class Kind : std::uint8_t {
    BranchOutOfRange,   ///< direct branch/call target outside the text
    BranchIntoPadding,  ///< direct branch/call target is a Ud slot
    FallthroughIntoPadding,  ///< non-terminal instruction precedes Ud
    UnknownAssertId,     ///< assertion id outside the registered range
    CallTargetNotSymbol, ///< call lands where no symbol begins
    /// Code no static control path reaches: not a symbol entry, not a
    /// branch/call target, not a call return site, not a MovRI code
    /// immediate, and not reachable by falling through from any of those.
    /// The peephole verifier could not express this; the CFG-based one
    /// reports it per basic block (addr = block start, target = block end).
    UnreachableBlock
  };
  Kind kind;
  Addr addr = 0;       ///< offending instruction
  Addr target = 0;     ///< branch/call target when applicable
  std::string detail;
};

std::string_view issue_kind_name(VerifierIssue::Kind k);

struct VerifierOptions {
  /// Assertion ids must be in [1, max_assert_id); 0 disables the check.
  std::uint32_t max_assert_id = 0;
  /// Require call targets to be named symbols (on for the microvisor,
  /// whose calling convention is symbol-based).
  bool calls_must_hit_symbols = true;
};

struct VerifierReport {
  std::vector<VerifierIssue> issues;
  // Text statistics, useful for documentation and sanity checks.
  std::size_t instructions = 0;
  std::size_t padding = 0;
  std::size_t branches = 0;
  std::size_t loads = 0;
  std::size_t stores = 0;
  std::size_t assertions = 0;
  std::size_t indirect_jumps = 0;

  bool ok() const { return issues.empty(); }
  std::string to_string() const;
};

/// Verifies the program; never throws.
VerifierReport verify_program(const Program& program,
                              const VerifierOptions& options = {});

}  // namespace xentry::sim
