#pragma once
// PipelineRetimeStage: the timing tail — the clock period reached with
// pipelining + retiming, or with retiming alone, read off longest-path labels.

#include "core/driver.hpp"

namespace turbosyn {

/// Finalizes FlowResult::mapped and the (period, stages) claim.
class PipelineRetimeStage final : public Stage {
 public:
  /// Either way the published network stays un-retimed, so it is
  /// cycle-accurate equivalent to the input from the all-zero state, and
  /// FlowResult::retiming holds the label lags that witness the period.
  enum class Kind {
    /// MDR mode: the period and pipeline depth pipelining + retiming reach,
    /// from one label pass (gated by FlowOptions::pipeline).
    kPipelineRetime,
    /// Clock-period mode: the least period retiming alone reaches, by a
    /// binary search over label passes; no pipelining (runs regardless of
    /// FlowOptions::pipeline).
    kRetimeOnly,
  };

  /// `final_budget_check`: flows whose mapping core is not budget-aware
  /// (FlowSYN-s) fold a deadline/cancel that fired during it into the
  /// status here, at the very end.
  explicit PipelineRetimeStage(Kind kind, bool final_budget_check = false)
      : kind_(kind), final_budget_check_(final_budget_check) {}

  const char* name() const override { return "pipeline-retime"; }
  std::vector<ArtifactId> consumes() const override { return {ArtifactId::kPackedNetwork}; }
  std::vector<ArtifactId> produces() const override { return {ArtifactId::kTiming}; }
  void run(FlowContext& ctx) override;

 private:
  Kind kind_;
  bool final_budget_check_;
};

}  // namespace turbosyn
