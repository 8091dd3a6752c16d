// Registers every builtin backend with the registry: the full cross product
// of {diskann, dynamic_diskann, sharded_diskann, hnsw, hcnng, pynndescent,
// ivf_flat, lsh} x {euclidean, mips, cosine} x {float, uint8, int8}, plus
// ivf_pq for euclidean and mips only (its ADC tables require a metric that
// decomposes over PQ subspaces as a sum, which cosine does not).
//
// Compiled once into the core library — the heavy builder templates are
// instantiated here instead of in every consumer translation unit. The
// factories are referenced through ensure_builtin_backends(), a real symbol,
// so a static-library link can never drop this object file.
#include "api/adapters.h"
#include "api/registry.h"

#include "algorithms/diskann.h"
#include "algorithms/dynamic_index.h"
#include "algorithms/hcnng.h"
#include "algorithms/hnsw.h"
#include "algorithms/pynndescent.h"
#include "algorithms/sharded_build.h"

namespace ann {

namespace {

template <typename Metric, typename T, typename Params>
using FlatGraphBackend =
    adapters::GraphBackend<Metric, T, GraphIndex<Metric, T>, Params>;

template <typename Metric, typename T>
void register_for_metric_dtype(Registry& r) {
  const std::string metric = metric_api_name<Metric>();
  const std::string dtype = dtype_name<T>();

  r.register_backend_if_absent("diskann", metric, dtype, [](const IndexSpec& spec) {
    using Backend = FlatGraphBackend<Metric, T, DiskANNParams>;
    return std::make_unique<Backend>(spec.params_or<DiskANNParams>(),
                                     &build_diskann<Metric, T>);
  });
  r.register_backend_if_absent("dynamic_diskann", metric, dtype, [](const IndexSpec& spec) {
    return std::make_unique<adapters::DynamicDiskANNBackend<Metric, T>>(
        spec.params_or<DiskANNParams>());
  });
  r.register_backend_if_absent("sharded_diskann", metric, dtype, [](const IndexSpec& spec) {
    using Backend = FlatGraphBackend<Metric, T, ShardedBuildParams>;
    return std::make_unique<Backend>(spec.params_or<ShardedBuildParams>(),
                                     &build_sharded_diskann<Metric, T>);
  });
  r.register_backend_if_absent("hcnng", metric, dtype, [](const IndexSpec& spec) {
    using Backend = FlatGraphBackend<Metric, T, HCNNGParams>;
    return std::make_unique<Backend>(spec.params_or<HCNNGParams>(),
                                     &build_hcnng<Metric, T>);
  });
  r.register_backend_if_absent("pynndescent", metric, dtype, [](const IndexSpec& spec) {
    using Backend = FlatGraphBackend<Metric, T, PyNNDescentParams>;
    return std::make_unique<Backend>(spec.params_or<PyNNDescentParams>(),
                                     &build_pynndescent<Metric, T>);
  });
  r.register_backend_if_absent("hnsw", metric, dtype, [](const IndexSpec& spec) {
    using Backend =
        adapters::GraphBackend<Metric, T, HNSWIndex<Metric, T>, HNSWParams>;
    return std::make_unique<Backend>(spec.params_or<HNSWParams>(),
                                     &build_hnsw<Metric, T>);
  });
  r.register_backend_if_absent("ivf_flat", metric, dtype, [](const IndexSpec& spec) {
    return std::make_unique<adapters::IVFFlatBackend<Metric, T>>(
        spec.params_or<IVFParams>());
  });
  r.register_backend_if_absent("lsh", metric, dtype, [](const IndexSpec& spec) {
    return std::make_unique<adapters::LSHBackend<Metric, T>>(
        spec.params_or<LSHParams>());
  });
  if constexpr (!std::is_same_v<Metric, Cosine>) {
    r.register_backend_if_absent("ivf_pq", metric, dtype, [](const IndexSpec& spec) {
      return std::make_unique<adapters::IVFPQBackend<Metric, T>>(
          spec.params_or<IVFPQParams>());
    });
  }
}

template <typename Metric>
void register_for_metric(Registry& r) {
  register_for_metric_dtype<Metric, float>(r);
  register_for_metric_dtype<Metric, std::uint8_t>(r);
  register_for_metric_dtype<Metric, std::int8_t>(r);
}

bool register_builtins() {
  Registry& r = Registry::instance();
  register_for_metric<EuclideanSquared>(r);
  register_for_metric<NegInnerProduct>(r);
  register_for_metric<Cosine>(r);
  return true;
}

}  // namespace

void ensure_builtin_backends() {
  static const bool once = register_builtins();
  (void)once;
}

}  // namespace ann
