// Microbenchmarks (google-benchmark) for the engineering-critical kernels:
// truth-table composition, remap and cofactor, BDD construction from and
// back to truth tables, column multiplicity, the node-cut K-cut test,
// Roth–Karp decomposition, the expanded-circuit build, cut-function
// extraction and the sequential simulator. These are the inner loops that
// the per-sweep label computation cost (and hence every table) rests on.
//
// BM_Flow* additionally time the four public flows end to end and attach
// the per-stage StageMetrics breakdown as counters; see the comment above
// set_flow_counters for the BENCH_flow.json invocation. BM_PipelineRetime
// times the pipeline + retime tail with its W/D-table work counters, and
// BM_CacheHit a flow-cache hit served as a summary vs replayed for artifacts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "cache/cached_flow.hpp"
#include "core/engines.hpp"
#include "core/expanded.hpp"
#include "core/flows.hpp"
#include "core/labeling.hpp"
#include "core/portfolio.hpp"
#include "decomp/roth_karp.hpp"
#include "graph/node_cut.hpp"
#include "mapping/lut_network.hpp"
#include "retime/howard.hpp"
#include "retime/pipeline.hpp"
#include "netlist/blif.hpp"
#include "netlist/gates.hpp"
#include "service/batch_runner.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"

namespace turbosyn {
namespace {

TruthTable random_tt(Rng& rng, int vars) {
  TruthTable t = TruthTable::constant(vars, false);
  for (std::size_t w = 0; w < t.num_words(); ++w) {
    // Build word-wise for speed.
    for (std::uint32_t b = 0; b < 64 && (w * 64 + b) < t.num_bits(); ++b) {
      if (rng.next_bool()) t.set_bit(static_cast<std::uint32_t>(w * 64 + b), true);
    }
  }
  return t;
}

void BM_TruthTableCompose(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  Rng rng(1);
  const TruthTable g = random_tt(rng, 5);
  std::vector<TruthTable> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(random_tt(rng, arity));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compose(g, inputs));
  }
}
BENCHMARK(BM_TruthTableCompose)->Arg(8)->Arg(12)->Arg(15);

// The Roth–Karp reorder: a random permutation of all arity variables, and
// (arg 1) a widening remap of arity-2 variables onto arity.
void BM_TruthTableRemap(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  const int from = state.range(1) != 0 ? arity - 2 : arity;
  Rng rng(4);
  const TruthTable t = random_tt(rng, from);
  std::vector<int> var_map(static_cast<std::size_t>(arity));
  std::iota(var_map.begin(), var_map.end(), 0);
  for (int i = arity - 1; i > 0; --i) {
    std::swap(var_map[static_cast<std::size_t>(i)],
              var_map[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  var_map.resize(static_cast<std::size_t>(from));
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.remap(arity, var_map));
  }
}
BENCHMARK(BM_TruthTableRemap)
    ->Args({6, 0})
    ->Args({10, 0})
    ->Args({15, 0})
    ->Args({15, 1});

void BM_TruthTableCofactor(benchmark::State& state) {
  Rng rng(5);
  const TruthTable t = random_tt(rng, 13);
  for (auto _ : state) {
    for (int v = 0; v < t.num_vars(); ++v) {
      benchmark::DoNotOptimize(t.cofactor(v, (v & 1) != 0));
    }
  }
}
BENCHMARK(BM_TruthTableCofactor);

void BM_ColumnMultiplicity(benchmark::State& state) {
  Rng rng(3);
  const TruthTable t = random_tt(rng, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify_columns(t, 5).multiplicity());
  }
}
BENCHMARK(BM_ColumnMultiplicity);

void BM_RothKarpDecompose(benchmark::State& state) {
  // A decomposable function: tree of ANDs/XORs over 12 inputs.
  const int m = 12;
  TruthTable f = TruthTable::constant(m, false);
  {
    TruthTable acc = TruthTable::var(m, 0) & TruthTable::var(m, 1);
    for (int i = 2; i + 1 < m; i += 2) {
      acc = acc ^ (TruthTable::var(m, i) & TruthTable::var(m, i + 1));
    }
    f = acc;
  }
  std::vector<int> eff(m, 0);
  DecompOptions opt;
  opt.k = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose_for_label(f, eff, 3, opt));
  }
}
BENCHMARK(BM_RothKarpDecompose);

void BM_KCutTest(benchmark::State& state) {
  // Layered DAG node-cut network, the shape of a FlowMap cone test: 8 unit
  // nodes per layer, layer 0 fed by the source, every later node reading
  // two nodes of the layer below, the top layer feeding the sink. The cut
  // test (limit 5) fails after 6 paths. One reused NodeCut, as in the label
  // engine's per-thread scratch.
  const int layers = static_cast<int>(state.range(0));
  const int n = 8 * layers + 1;
  const int sink = n - 1;
  std::vector<std::int32_t> fanin_offset{0};
  std::vector<std::int32_t> fanins;
  std::vector<std::int64_t> capacity(static_cast<std::size_t>(n), 1);
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    const int layer = v / 8;
    if (v == sink) {
      for (int i = 0; i < 8; ++i) fanins.push_back(8 * (layers - 1) + i);
      flags[static_cast<std::size_t>(v)] = NodeCut::kSink;
    } else if (layer == 0) {
      flags[static_cast<std::size_t>(v)] = NodeCut::kFromSource;
    } else {
      fanins.push_back(8 * (layer - 1) + v % 8);
      fanins.push_back(8 * (layer - 1) + (v + 1) % 8);
    }
    fanin_offset.push_back(static_cast<std::int32_t>(fanins.size()));
  }
  const NodeCut::Network net{std::span(fanin_offset).first(static_cast<std::size_t>(n)),
                             std::span(fanin_offset).last(static_cast<std::size_t>(n)), fanins,
                             capacity, flags};
  NodeCut cut;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cut.run(net, 5));
  }
}
BENCHMARK(BM_KCutTest)->Arg(4)->Arg(16);

void BM_ExpandedNetworkBuildAndCut(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 1);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  ExpandedOptions opt;
  // Pick a gate deep in the circuit.
  NodeId root = kNoNode;
  for (NodeId v = c.num_nodes() - 1; v >= 0; --v) {
    if (c.is_gate(v) && !c.fanin_edges(v).empty()) {
      root = v;
      break;
    }
  }
  for (auto _ : state) {
    ExpandedNetwork net(c, labels, 2, root, 1, opt);
    benchmark::DoNotOptimize(net.find_cut(5));
  }
}
BENCHMARK(BM_ExpandedNetworkBuildAndCut);

// One cut-function extraction over a cut of `arity` inputs (tables of up
// to 512 words): a cone of three layers of random 2-input gates, each gate
// reading two neighbours of the layer below, then a reduction tree to one
// root. Gates are mandatory at the height limit, so the cut is the PIs.
void BM_CutFunction(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  Rng rng(9);
  const TruthTable kinds[] = {tt_and(2), tt_or(2), tt_xor(2), tt_nand(2)};
  Circuit c;
  std::vector<NodeId> layer;
  for (int i = 0; i < arity; ++i) layer.push_back(c.add_pi("i" + std::to_string(i)));
  int gates = 0;
  const auto add_gate = [&](NodeId a, NodeId b) {
    const Circuit::FaninSpec fanins[2] = {{a, 0}, {b, 0}};
    return c.add_gate("g" + std::to_string(gates++), kinds[rng.next_below(4)], fanins);
  };
  for (int level = 0; level < 3; ++level) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < layer.size(); ++i) {
      next.push_back(add_gate(layer[i], layer[(i + 1) % layer.size()]));
    }
    layer = std::move(next);
  }
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(add_gate(layer[i], layer[i + 1]));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  c.add_po("$po:o", {layer[0], 0});
  std::vector<int> labels(static_cast<std::size_t>(c.num_nodes()), 100);
  for (const NodeId pi : c.pis()) labels[static_cast<std::size_t>(pi)] = 0;
  ExpandedNetwork net(c, labels, 1, layer[0], 1, ExpandedOptions{});
  const auto cut = net.find_cut(arity);
  TS_CHECK(cut && static_cast<int>(cut->size()) == arity, "the PIs must form the cut");
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.cut_function(*cut));
  }
}
BENCHMARK(BM_CutFunction)->Arg(5)->Arg(8)->Arg(10)->Arg(15);

void BM_LabelComputationTurboMap(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  LabelOptions lo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_labels(c, 2, lo));
  }
}
BENCHMARK(BM_LabelComputationTurboMap);

// End-to-end labeling: one cold engine, one probe. Emit machine-readable
// results with
//   micro_bench --benchmark_filter=BM_Label --benchmark_out=BENCH_labeling.json
//               --benchmark_out_format=json
void BM_LabelEngineThreads(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  LabelOptions lo;
  for (auto _ : state) {
    LabelEngine engine(c, lo);
    benchmark::DoNotOptimize(engine.compute(2));
  }
}
BENCHMARK(BM_LabelEngineThreads)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// The same probe through one warm engine: the φ-search steady state, where
// graph analysis, decomposition cache and scratch arenas are all amortized.
void BM_LabelEngineWarmProbe(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  LabelEngine engine(c, LabelOptions{});
  (void)engine.compute(3);  // seed the warm-start map
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.compute(2));
  }
}
BENCHMARK(BM_LabelEngineWarmProbe)->Unit(benchmark::kMillisecond);

// A descending multi-probe suite through one warm engine — the φ-search
// pattern the cross-φ warm start serves (each probe seeds from the previous
// fixpoint, a valid lower bound, and sweeps to the new least fixpoint). The
// deterministic node_updates counter feeds the bench gate.
void BM_LabelEngineDescendingProbes(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  LabelOptions lo;
  LabelStats stats;
  for (auto _ : state) {
    LabelEngine engine(c, lo);
    stats = LabelStats{};
    for (int phi = 12; phi >= 1; --phi) {
      const LabelResult r = engine.compute(phi);
      stats.accumulate(r.stats);
      benchmark::DoNotOptimize(&r);
      if (!r.feasible) break;
    }
  }
  state.counters["node_updates"] =
      benchmark::Counter(static_cast<double>(stats.node_updates));
  // How the K-cut tests were settled: by a flow, by a stored cut, or by
  // stored flow paths. Not in the committed baseline, so reported, not gated.
  state.counters["cut_tests"] = benchmark::Counter(static_cast<double>(stats.cut_tests));
  state.counters["cut_reuses"] = benchmark::Counter(static_cast<double>(stats.cut_reuses));
  state.counters["cut_refutations"] =
      benchmark::Counter(static_cast<double>(stats.cut_refutations));
  state.counters["flow_augmentations"] =
      benchmark::Counter(static_cast<double>(stats.flow_augmentations));
}
BENCHMARK(BM_LabelEngineDescendingProbes)->Unit(benchmark::kMillisecond);

// The TurboSYN twin: descending decomposition probes through one engine, as
// the paper's flow scans down from the TurboMap bound. Each probe starts
// cold but shares the decomposition memo and the stored cuts and flow
// paths. Augmenting paths count the cut tests' flow work, the K-cut tests'
// and the Cmax resynthesis cuts' together.
void BM_LabelEngineDecompProbes(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  LabelOptions lo;
  lo.enable_decomposition = true;
  LabelStats stats;
  for (auto _ : state) {
    LabelEngine engine(c, lo);
    stats = LabelStats{};
    for (int phi = 12; phi >= 1; --phi) {
      const LabelResult r = engine.compute(phi);
      stats.accumulate(r.stats);
      benchmark::DoNotOptimize(&r);
      if (!r.feasible) break;
    }
  }
  state.counters["node_updates"] =
      benchmark::Counter(static_cast<double>(stats.node_updates));
  state.counters["cut_tests"] = benchmark::Counter(static_cast<double>(stats.cut_tests));
  state.counters["flow_augmentations"] =
      benchmark::Counter(static_cast<double>(stats.flow_augmentations));
  state.counters["decomp_attempts"] =
      benchmark::Counter(static_cast<double>(stats.decomp_attempts));
}
BENCHMARK(BM_LabelEngineDecompProbes)->Unit(benchmark::kMillisecond);

// Scaling-suite labeling: the large-circuit regime (one infeasible + one
// feasible probe, as a binary search sees).
void BM_LabelEngineScalingCircuit(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(scaling_suite()[0]);
  LabelOptions lo;
  for (auto _ : state) {
    LabelEngine engine(c, lo);
    benchmark::DoNotOptimize(engine.compute(1));
    benchmark::DoNotOptimize(engine.compute(2));
  }
}
BENCHMARK(BM_LabelEngineScalingCircuit)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// End-to-end flow benchmarks with the per-stage breakdown attached as
// counters (stage wall time under "s_<stage>", summed over repeated stages;
// plus the probe count and the flow's own wall time share). The stage and
// cut-test counts are deterministic, so the CI gate's counter check fails
// if a flow gains a stage (say, a second mapping tail). Emit
// machine-readable results with
//   micro_bench --benchmark_filter=BM_Flow --benchmark_out=BENCH_flow.json
//               --benchmark_out_format=json
void set_flow_counters(benchmark::State& state, const FlowResult& r) {
  std::map<std::string, double> seconds;
  for (const StageMetric& s : r.stage_metrics.stages) seconds[s.name] += s.seconds;
  for (const auto& [name, secs] : seconds) {
    state.counters["s_" + name] = benchmark::Counter(secs);
  }
  state.counters["stages"] =
      benchmark::Counter(static_cast<double>(r.stage_metrics.stages.size()));
  state.counters["probes"] = benchmark::Counter(static_cast<double>(r.probes.size()));
  state.counters["cut_tests"] = benchmark::Counter(static_cast<double>(r.stats.cut_tests));
  state.counters["phi"] = benchmark::Counter(static_cast<double>(r.phi));
  state.counters["labels_computed"] =
      benchmark::Counter(static_cast<double>(r.stats.node_updates));
  state.counters["flow_seconds"] = benchmark::Counter(r.seconds);
}

void BM_FlowTurboMap(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  FlowOptions opt;
  FlowResult r;
  for (auto _ : state) {
    r = run_turbomap(c, opt);
    benchmark::DoNotOptimize(r);
  }
  set_flow_counters(state, r);
}
BENCHMARK(BM_FlowTurboMap)->Unit(benchmark::kMillisecond);

void BM_FlowTurboSyn(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[0]);
  FlowOptions opt;
  FlowResult r;
  for (auto _ : state) {
    r = run_turbosyn(c, opt);
    benchmark::DoNotOptimize(r);
  }
  set_flow_counters(state, r);
}
BENCHMARK(BM_FlowTurboSyn)->Unit(benchmark::kMillisecond);

void BM_FlowFlowSynS(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  FlowOptions opt;
  FlowResult r;
  for (auto _ : state) {
    r = run_flowsyn_s(c, opt);
    benchmark::DoNotOptimize(r);
  }
  set_flow_counters(state, r);
}
BENCHMARK(BM_FlowFlowSynS)->Unit(benchmark::kMillisecond);

void BM_FlowTurboMapPeriod(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  FlowOptions opt;
  FlowResult r;
  for (auto _ : state) {
    r = run_turbomap_period(c, opt);
    benchmark::DoNotOptimize(r);
  }
  set_flow_counters(state, r);
}
BENCHMARK(BM_FlowTurboMapPeriod)->Unit(benchmark::kMillisecond);

/// The largest Table-1 shape (scf) after TurboMap, un-pipelined; `raw`
/// skips dedupe and packing (mapping generation's own LUT list).
Circuit largest_table1_mapped(bool raw = false) {
  const std::vector<BenchmarkSpec> suite = table1_suite();
  const BenchmarkSpec& spec = *std::max_element(
      suite.begin(), suite.end(),
      [](const BenchmarkSpec& a, const BenchmarkSpec& b) { return a.num_gates < b.num_gates; });
  FlowOptions opt;
  opt.pipeline = false;
  opt.dedupe = !raw;
  opt.pack = !raw;
  return run_turbomap(generate_fsm_circuit(spec), opt).mapped;
}

// The mapping tail after mapping generation on the same network: dedupe and
// packing on a copy of the raw LUT list, the one named Circuit build, and
// Howard's MDR of the result (the "pack" stage of a TurboMap flow).
void BM_MappingTail(benchmark::State& state) {
  const Circuit raw = largest_table1_mapped(/*raw=*/true);
  const LutNetwork net = LutNetwork::from_circuit(raw);
  Rational ratio;
  int luts = 0;
  for (auto _ : state) {
    LutNetwork tail = net;
    dedupe_luts(tail);
    pack_luts(tail, 5);
    const Circuit mapped = tail.to_circuit();
    ratio = circuit_mdr_howard(mapped).ratio;
    luts = mapped.num_gates();
    benchmark::DoNotOptimize(ratio);
  }
  state.counters["luts_before"] = benchmark::Counter(raw.num_gates());
  state.counters["luts"] = benchmark::Counter(luts);
}
BENCHMARK(BM_MappingTail)->Unit(benchmark::kMillisecond);

// The pipeline + retime tail alone on the largest Table-1 shape after
// TurboMap: one longest-path label pass per iteration.
void BM_PipelineRetime(benchmark::State& state) {
  const Circuit mapped = largest_table1_mapped();
  const Rational mdr = circuit_mdr_howard(mapped).ratio;
  PipelineResult p;
  for (auto _ : state) {
    p = pipeline_and_retime(mapped, mdr);
    benchmark::DoNotOptimize(p);
  }
  state.counters["configs"] = benchmark::Counter(1);
  state.counters["label_rounds"] = benchmark::Counter(static_cast<double>(p.label_rounds));
}
BENCHMARK(BM_PipelineRetime)->Unit(benchmark::kMillisecond);

// The exact MDR of the same network by Howard's policy iteration, the
// product's one MDR solver.
void BM_CycleRatio(benchmark::State& state) {
  const Circuit mapped = largest_table1_mapped();
  Rational ratio;
  for (auto _ : state) {
    ratio = circuit_mdr_howard(mapped).ratio;
    benchmark::DoNotOptimize(ratio);
  }
}
BENCHMARK(BM_CycleRatio)->Arg(0)->Unit(benchmark::kMillisecond);

// read_blif_string on a written Table-1 shape: Arg 0 is dk16 (about 25 KB,
// a Table-1-size netlist), Arg 1 is bbara (about 7 KB, the size of a
// serve_mixed request). bytes_per_second is the reader's rate.
void BM_ReadBlif(benchmark::State& state) {
  const std::string shape = state.range(0) == 0 ? "dk16" : "bbara";
  std::string text;
  for (const BenchmarkSpec& spec : table1_suite()) {
    if (spec.name == shape) text = write_blif_string(generate_fsm_circuit(spec));
  }
  TS_CHECK(!text.empty(), "BM_ReadBlif: no Table-1 shape named " << shape);
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_blif_string(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ReadBlif)->Arg(0)->Arg(1);

// One flow-cache hit on the first Table-1 shape under TurboMap, from the hot
// tier: Arg 0 serves the stored summary (what the batch runner and the
// daemon ask for), Arg 1 collects artifacts and so replays mapgen → pack →
// pipeline-retime from the cached labels. hit_stages counts the stages the
// hit ran (1 vs 4).
void BM_CacheHit(benchmark::State& state) {
  namespace fs = std::filesystem;
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  const fs::path dir = fs::temp_directory_path() / "turbosyn_bench_cache_hit";
  fs::remove_all(dir);
  FlowCache cache(dir.string());
  cache.enable_hot_tier(std::size_t{16} << 20);
  FlowOptions opt;
  (void)run_flow_cached(FlowKind::kTurboMap, c, opt, &cache);  // populate
  opt.collect_artifacts = state.range(0) == 1;
  CacheRunInfo info;
  FlowResult r;
  for (auto _ : state) {
    r = run_flow_cached(FlowKind::kTurboMap, c, opt, &cache, &info);
    benchmark::DoNotOptimize(r);
  }
  TS_CHECK(info.hit, "BM_CacheHit: the populated entry missed");
  state.counters["hit_stages"] =
      benchmark::Counter(static_cast<double>(r.stage_metrics.stages.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_CacheHit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Portfolio race over the registry engines: every engine runs once, in list
// order, and the best certificate ships. Emit machine-readable results with
//   micro_bench --benchmark_filter=BM_Portfolio
//               --benchmark_out=BENCH_portfolio.json --benchmark_out_format=json
// The probes counter is a deterministic replay and feeds the bench gate.
void BM_Portfolio(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(tiny_suite()[2]);
  std::vector<const EngineSpec*> engines;
  const std::string invalid = parse_portfolio("turbomap,turbosyn,flowsyn_s", engines);
  TS_CHECK(invalid.empty(), invalid);
  FlowOptions opt;
  FlowResult r;
  for (auto _ : state) {
    r = run_portfolio(engines, c, opt);
    benchmark::DoNotOptimize(r);
  }
  state.counters["phi"] = benchmark::Counter(static_cast<double>(r.phi));
  const EngineSpec* winner = find_engine(r.engine);
  state.counters["winner_strength"] =
      benchmark::Counter(winner != nullptr ? static_cast<double>(winner->strength) : -1.0);
  state.counters["probes"] = benchmark::Counter(static_cast<double>(r.probes.size()));
  state.counters["flow_seconds"] = benchmark::Counter(r.seconds);
}
BENCHMARK(BM_Portfolio)->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// Batch multi-circuit scheduler, cold (Arg 0: every iteration starts from an
// empty artifact cache and populates it) vs warm (Arg 1: the cache is
// pre-populated once, so every circuit is a cache hit). Emit
// machine-readable results with
//   micro_bench --benchmark_filter=BM_Batch --benchmark_out=BENCH_batch.json
//               --benchmark_out_format=json
void BM_BatchFlow(benchmark::State& state) {
  namespace fs = std::filesystem;
  const bool warm = state.range(0) == 1;
  const fs::path dir = fs::temp_directory_path() / "turbosyn_bench_batch";
  fs::create_directories(dir);
  std::vector<BatchJob> jobs;
  for (const BenchmarkSpec& spec : tiny_suite()) {
    const Circuit c = generate_fsm_circuit(spec);
    const fs::path path = dir / (spec.name + ".blif");
    write_blif_file(c, path.string(), spec.name);
    BatchJob job;
    job.name = spec.name;
    job.path = path.string();
    jobs.push_back(job);
  }
  const fs::path cache_dir = dir / (warm ? "cache_warm" : "cache_cold");
  BatchOptions options;
  options.num_workers = 1;  // two lanes: the caller plus one helper thread
  std::optional<FlowCache> cache;  // outlives the loop so counters are readable
  BatchSummary summary;
  if (warm) {
    fs::remove_all(cache_dir);
    cache.emplace(cache_dir.string());
    options.cache = &*cache;
    (void)run_batch(jobs, options);  // populate once; iterations all hit
    for (auto _ : state) {
      summary = run_batch(jobs, options);
      benchmark::DoNotOptimize(summary);
    }
  } else {
    for (auto _ : state) {
      state.PauseTiming();
      fs::remove_all(cache_dir);
      cache.emplace(cache_dir.string());
      options.cache = &*cache;
      state.ResumeTiming();
      summary = run_batch(jobs, options);
      benchmark::DoNotOptimize(summary);
    }
  }
  state.counters["cache_hits"] = benchmark::Counter(static_cast<double>(summary.cache_hits));
  state.counters["completed"] = benchmark::Counter(static_cast<double>(summary.completed));
  // Fault-tolerance counters (DESIGN.md §13): all deterministically zero on a
  // healthy run, so the bench gate flags any retry/quarantine/recovery churn
  // sneaking into the hot path.
  state.counters["retries"] = benchmark::Counter(static_cast<double>(summary.retries));
  state.counters["quarantined"] = benchmark::Counter(static_cast<double>(summary.quarantined));
  state.counters["recovered_entries"] =
      benchmark::Counter(cache ? static_cast<double>(cache->recovered_entries()) : 0.0);
  state.counters["store_retries"] =
      benchmark::Counter(cache ? static_cast<double>(cache->retries()) : 0.0);
}
BENCHMARK(BM_BatchFlow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// 256 cycles of all 64 lanes: the audit's co-simulation kernel.
void BM_SequentialSimulation(benchmark::State& state) {
  const Circuit c = generate_fsm_circuit(table1_suite()[0]);
  Rng rng(7);
  const auto stimulus = random_lane_stimulus(rng, c.num_pis(), 256);
  Simulator sim(c);
  for (auto _ : state) {
    sim.reset();
    for (const auto& in : stimulus) benchmark::DoNotOptimize(sim.step_lanes(in).data());
  }
  state.counters["lane_cycles"] = benchmark::Counter(
      static_cast<double>(Simulator::kLanes * stimulus.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialSimulation);

}  // namespace
}  // namespace turbosyn

BENCHMARK_MAIN();
