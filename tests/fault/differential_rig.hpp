// A pair of InjectionExperiment rigs for differential tests of the
// faulted-run path: each side owns its golden and faulty machines, an
// Xentry with metrics, and a flight recorder on the faulty machine (as
// the campaign attaches them), and the helpers compare what two sides'
// runs leave behind.
#pragma once

#include <gtest/gtest.h>

#include "analysis/artifacts.hpp"
#include "fault/experiment.hpp"
#include "ml/rules.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "xentry/assertions.hpp"

namespace xentry::fault {

/// One experiment rig on one engine, with metrics and a flight recorder
/// on the faulty machine (as the campaign attaches them).
struct Side {
  Side(sim::EngineKind engine, const XentryConfig& cfg,
       const ml::RuleSet* model,
       const analysis::AnalysisArtifacts* artifacts)
      : xentry(cfg) {
    golden.set_execution_engine(engine);
    faulty.set_execution_engine(engine);
    if (model != nullptr) xentry.set_model(*model);
    if (artifacts != nullptr) xentry.set_analysis(artifacts);
    xentry.set_metrics(&metrics);
    hooks.flight = &flight;
    hooks.flight_source = 1;
    faulty.set_telemetry(&hooks);
    exp.set_flight_recorder(&flight);
  }

  hv::Machine golden;
  hv::Machine faulty;
  Xentry xentry;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder flight{8};
  obs::MachineTelemetry hooks;
  InjectionExperiment exp{golden, faulty, xentry};
  InjectionExperiment::GoldenProbe probe;
};

inline void expect_same_result(const InjectionExperiment::Result& got,
                               const InjectionExperiment::Result& want) {
  const InjectionRecord& a = got.record;
  const InjectionRecord& b = want.record;
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.activation_seed, b.activation_seed);
  EXPECT_EQ(a.vcpu, b.vcpu);
  EXPECT_EQ(a.injection.at_step, b.injection.at_step);
  EXPECT_EQ(a.injection.reg, b.injection.reg);
  EXPECT_EQ(a.injection.bit, b.injection.bit);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.activated, b.activated);
  EXPECT_EQ(a.consequence, b.consequence);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.technique, b.technique);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.trap, b.trap);
  EXPECT_EQ(a.assert_id, b.assert_id);
  EXPECT_EQ(a.trace_diverged, b.trace_diverged);
  EXPECT_EQ(a.undetected, b.undetected);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.masked_weight, b.masked_weight);
  EXPECT_EQ(a.blackbox, b.blackbox);
  EXPECT_EQ(a.forensics.has_value(), b.forensics.has_value());
  EXPECT_EQ(got.golden_features, want.golden_features);
  EXPECT_EQ(got.golden_ok, want.golden_ok);
}

inline void expect_same_metrics(const obs::MetricsRegistry& got,
                                const obs::MetricsRegistry& want) {
  ASSERT_EQ(got.counters().size(), want.counters().size());
  for (const auto& [name, c] : want.counters()) {
    const obs::Counter* g = got.find_counter(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->value(), c.value()) << name;
  }
  ASSERT_EQ(got.histograms().size(), want.histograms().size());
  for (const auto& [name, h] : want.histograms()) {
    const obs::Log2Histogram* g = got.find_histogram(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->count(), h.count()) << name;
    EXPECT_EQ(g->sum(), h.sum()) << name;
    EXPECT_EQ(g->min(), h.min()) << name;
    EXPECT_EQ(g->max(), h.max()) << name;
    for (int i = 0; i < obs::Log2Histogram::kNumBuckets; ++i) {
      EXPECT_EQ(g->bucket(i), h.bucket(i)) << name << " bucket " << i;
    }
  }
}

inline void expect_same_fires(const AssertionRegistry& got,
                              const AssertionRegistry& want) {
  const auto a = got.rows();
  const auto b = want.rows();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].fires, b[i].fires) << "assertion " << a[i].id;
  }
}

}  // namespace xentry::fault
