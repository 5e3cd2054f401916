#include "harness/deployment.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "baselines/authenticated.hpp"
#include "baselines/polling.hpp"
#include "common/assert.hpp"
#include "core/regular_reader.hpp"
#include "core/safe_reader.hpp"
#include "core/writer.hpp"
#include "sim/world.hpp"

namespace rr::harness {

FaultPlan FaultPlan::crash_only(int count) {
  FaultPlan plan;
  for (int i = 0; i < count; ++i) plan.crashed.push_back(i);
  return plan;
}

FaultPlan FaultPlan::mixed(int byz, adversary::StrategyKind kind, int crash) {
  FaultPlan plan;
  for (int i = 0; i < byz; ++i) plan.byzantine[i] = kind;
  for (int i = byz; i < byz + crash; ++i) plan.crashed.push_back(i);
  return plan;
}

Deployment::Deployment(DeploymentOptions opts)
    : opts_(std::move(opts)),
      layout_{opts_.shards, opts_.res.num_readers, opts_.res.num_objects},
      topo_(opts_.res.num_readers, opts_.res.num_objects) {
  RR_ASSERT(opts_.res.valid());
  RR_ASSERT(opts_.shards >= 1);
  RR_ASSERT_MSG(opts_.faults.total_faulty() <= opts_.res.t,
                "fault plan exceeds the resilience budget t");
  RR_ASSERT_MSG(static_cast<int>(opts_.faults.byzantine.size()) <= opts_.res.b,
                "fault plan exceeds the Byzantine budget b");
  build();
}

Deployment::~Deployment() = default;

sim::World& Deployment::world() {
  auto* w = backend_->world();
  RR_ASSERT_MSG(w != nullptr, "world() requires the DES backend");
  return *w;
}

checker::HistoryLog& Deployment::log(int shard) {
  RR_ASSERT(shard >= 0 && shard < opts_.shards);
  return *logs_[static_cast<std::size_t>(shard)];
}

void Deployment::build() {
  BackendConfig bcfg;
  bcfg.seed = opts_.seed;
  bcfg.reserialize = opts_.reserialize;
  bcfg.delay = opts_.delay;
  bcfg.delay_lo = opts_.delay_lo;
  bcfg.delay_hi = opts_.delay_hi;
  bcfg.trace_fingerprint = opts_.trace_fingerprint;
  bcfg.max_jitter_us = opts_.thread_jitter_us;
  bcfg.threads_batched_drain = opts_.thread_batched_drain;
  bcfg.max_wall_time_ms = opts_.thread_max_wall_ms;
  backend_ = make_backend(opts_.backend, bcfg);

  const ProtocolTraits& traits = protocol_traits(opts_.protocol);
  const Resilience& res = opts_.res;
  const int K = opts_.shards;
  const bool sharded = K > 1;

  // Registration order matches ShardLayout: all writers, all readers, then
  // the base objects (with K = 1 this is the classic Topology order).
  for (int s = 0; s < K; ++s) {
    auto w = traits.make_writer(res, topo_);
    std::unique_ptr<core::WriterClient> proc =
        sharded ? std::make_unique<ShardWriter>(layout_, s, std::move(w))
                : std::move(w);
    writers_.push_back(proc.get());
    const ProcessId pid = backend_->add_process(std::move(proc));
    RR_ASSERT(pid == layout_.writer(s));
  }
  readers_.resize(static_cast<std::size_t>(K));
  for (int s = 0; s < K; ++s) {
    for (int j = 0; j < res.num_readers; ++j) {
      auto r = traits.make_reader(res, topo_, j);
      std::unique_ptr<core::ReaderClient> proc =
          sharded
              ? std::make_unique<ShardReader>(layout_, s, j, std::move(r))
              : std::move(r);
      readers_[static_cast<std::size_t>(s)].push_back(proc.get());
      const ProcessId pid = backend_->add_process(std::move(proc));
      RR_ASSERT(pid == layout_.reader(s, j));
    }
  }

  // Base objects: honest, Byzantine impostor, or honest-then-crashed. In a
  // sharded deployment every object hosts one instance per register; a
  // Byzantine object is Byzantine in every register it serves.
  const ObjectConfig ocfg{opts_.history_limit, opts_.history_gc};
  for (int i = 0; i < res.num_objects; ++i) {
    const auto byz = opts_.faults.byzantine.find(i);
    const auto make_instance =
        [&](RegisterId) -> std::unique_ptr<net::Process> {
      if (byz != opts_.faults.byzantine.end()) {
        return adversary::make_byzantine(byz->second, traits.flavor, topo_,
                                         res, i);
      }
      return traits.make_object(topo_, i, ocfg);
    };
    std::unique_ptr<net::Process> obj =
        sharded ? std::make_unique<ShardedObjectHost>(layout_, i,
                                                      make_instance)
                : make_instance(0);
    const ProcessId pid = backend_->add_process(std::move(obj));
    RR_ASSERT(pid == layout_.object(i));
  }
  for (const int i : opts_.faults.crashed) {
    backend_->crash(layout_.object(i));
  }

  logs_.reserve(static_cast<std::size_t>(K));
  // The property retirement verifies is fixed now (retired ops are gone by
  // check time): the explicit override if given, else the protocol's promise.
  const checker::Property property = to_property(
      opts_.checker_semantics.value_or(promised_semantics(opts_.protocol)));
  for (int s = 0; s < K; ++s) {
    logs_.push_back(
        std::make_unique<checker::HistoryLog>(opts_.checker_window, property));
  }

  // Gray-failure library: install link faults (rewriting object-index
  // scopes to physical pids) and clock skew before the backend starts.
  if (opts_.link_faults.any()) {
    net::LinkFaults lf = opts_.link_faults;
    for (auto* rule : {&lf.loss, &lf.duplicate, &lf.reorder}) {
      for (auto& pid : rule->pids) pid = layout_.object(static_cast<int>(pid));
    }
    backend_->set_link_faults(lf);
  }
  for (const auto& [obj, offset] : opts_.clock_skew) {
    backend_->set_clock_skew(layout_.object(obj), offset);
  }

  backend_->start();
}

void Deployment::do_write(net::Context& ctx, int shard, Value v,
                          core::WriteCallback cb) {
  // Every write funnels through here, so this is the single point where the
  // deployment's latency histogram sees each invoke -> response interval.
  writers_[static_cast<std::size_t>(shard)]->write(
      ctx, std::move(v),
      [this, cb = std::move(cb)](const core::WriteResult& r) {
        write_latency_.record(r.latency());
        if (cb) cb(r);
      });
}

void Deployment::do_read(net::Context& ctx, int shard, int reader,
                         core::ReadCallback cb) {
  readers_[static_cast<std::size_t>(shard)][static_cast<std::size_t>(reader)]
      ->read(ctx, [this, cb = std::move(cb)](const core::ReadResult& r) {
        read_latency_.record(r.latency());
        if (cb) cb(r);
      });
}

void Deployment::invoke_write(Time at, Value v, core::WriteCallback cb) {
  invoke_write(at, 0, std::move(v), std::move(cb));
}

void Deployment::invoke_write(Time at, int shard, Value v,
                              core::WriteCallback cb) {
  RR_ASSERT(shard >= 0 && shard < opts_.shards);
  backend_->post(at, layout_.writer(shard),
                 [this, shard, v = std::move(v),
                  cb = std::move(cb)](net::Context& ctx) {
                   do_write(ctx, shard, v, cb);
                 });
}

void Deployment::invoke_read(Time at, int reader, core::ReadCallback cb) {
  invoke_read(at, 0, reader, std::move(cb));
}

void Deployment::invoke_read(Time at, int shard, int reader,
                             core::ReadCallback cb) {
  RR_ASSERT(shard >= 0 && shard < opts_.shards);
  RR_ASSERT(reader >= 0 && reader < opts_.res.num_readers);
  backend_->post(at, layout_.reader(shard, reader),
                 [this, shard, reader, cb = std::move(cb)](net::Context& ctx) {
                   do_read(ctx, shard, reader, cb);
                 });
}

void Deployment::logged_write(Time at, Value v, core::WriteCallback cb) {
  logged_write(at, 0, std::move(v), std::move(cb));
}

void Deployment::logged_write(Time at, int shard, Value v,
                              core::WriteCallback cb) {
  RR_ASSERT(shard >= 0 && shard < opts_.shards);
  backend_->post(at, layout_.writer(shard), [this, shard, v = std::move(v),
                                             cb = std::move(cb)](
                                                net::Context& ctx) {
    // The log handle is created at actual invocation (inside the writer's
    // step) so invoked_at is exact; the intended value is recorded up front
    // in case the write never completes. Times come from the backend's
    // global clock, not ctx.now(): the checker is an omniscient observer of
    // real-time precedence, so a client whose *local* clock is skewed (the
    // DSL's `fault skew role=...`) must not be able to shift its logged
    // interval. Unskewed, the two clocks agree to the tick.
    auto& log = *logs_[static_cast<std::size_t>(shard)];
    const auto handle = log.record_invocation(checker::OpRecord::Kind::Write,
                                              -1, backend_->now(), v);
    do_write(ctx, shard, v,
             [this, shard, handle, v, cb](const core::WriteResult& r) {
               logs_[static_cast<std::size_t>(shard)]->record_write_response(
                   handle, backend_->now(), r.ts, v);
               if (cb) cb(r);
             });
  });
}

void Deployment::logged_read(Time at, int reader, core::ReadCallback cb) {
  logged_read(at, 0, reader, std::move(cb));
}

void Deployment::logged_read(Time at, int shard, int reader,
                             core::ReadCallback cb) {
  RR_ASSERT(shard >= 0 && shard < opts_.shards);
  RR_ASSERT(reader >= 0 && reader < opts_.res.num_readers);
  backend_->post(at, layout_.reader(shard, reader),
                 [this, shard, reader, cb = std::move(cb)](net::Context& ctx) {
    // Same omniscient-clock rule as logged_write: checker times must not
    // pass through a (possibly skewed) client clock.
    auto& log = *logs_[static_cast<std::size_t>(shard)];
    const auto handle = log.record_invocation(checker::OpRecord::Kind::Read,
                                              reader, backend_->now());
    do_read(ctx, shard, reader,
            [this, shard, handle, cb](const core::ReadResult& r) {
              logs_[static_cast<std::size_t>(shard)]->record_read_response(
                  handle, backend_->now(), r.tsval);
              if (cb) cb(r);
            });
  });
}

checker::CheckReport Deployment::check() const {
  return check(promised_semantics(opts_.protocol));
}

checker::CheckReport Deployment::check(Semantics s) const {
  checker::CheckReport combined;
  for (int shard = 0; shard < opts_.shards; ++shard) {
    auto report = check_shard(shard, s);
    for (auto& v : report.violations) {
      combined.violations.push_back(
          opts_.shards > 1
              ? "shard " + std::to_string(shard) + ": " + std::move(v)
              : std::move(v));
    }
    combined.reads_checked += report.reads_checked;
    combined.writes_checked += report.writes_checked;
  }
  return combined;
}

checker::CheckReport Deployment::check_shard(int shard) const {
  return check_shard(shard, promised_semantics(opts_.protocol));
}

checker::Property to_property(Semantics s) {
  switch (s) {
    case Semantics::Safe: return checker::Property::Safe;
    case Semantics::Regular: return checker::Property::Regular;
    case Semantics::Atomic: return checker::Property::Atomic;
  }
  return checker::Property::Regular;  // unreachable
}

checker::WindowStats Deployment::checker_stats(int shard) const {
  RR_ASSERT(shard >= 0 && shard < opts_.shards);
  return logs_[static_cast<std::size_t>(shard)]->window_stats();
}

checker::WindowStats Deployment::checker_stats() const {
  checker::WindowStats agg;
  for (int shard = 0; shard < opts_.shards; ++shard) {
    const auto w = checker_stats(shard);
    agg.window = std::max(agg.window, w.window);
    agg.retired += w.retired;
    agg.peak_live = std::max(agg.peak_live, w.peak_live);
    agg.live += w.live;
  }
  return agg;
}

checker::CheckReport Deployment::check_shard(int shard, Semantics s) const {
  RR_ASSERT(shard >= 0 && shard < opts_.shards);
  return logs_[static_cast<std::size_t>(shard)]->check(to_property(s));
}

core::WriterClient& Deployment::writer_client(int shard) {
  RR_ASSERT(shard >= 0 && shard < opts_.shards);
  return *writers_[static_cast<std::size_t>(shard)];
}

core::ReaderClient& Deployment::reader_client(int shard, int j) {
  RR_ASSERT(shard >= 0 && shard < opts_.shards);
  RR_ASSERT(j >= 0 && j < opts_.res.num_readers);
  return *readers_[static_cast<std::size_t>(shard)][static_cast<std::size_t>(j)];
}

namespace {

/// Unwraps a shard adapter if present, then casts to the concrete type.
template <class Concrete, class Client>
Concrete& typed_client(Client* client) {
  if (auto* direct = dynamic_cast<Concrete*>(client)) return *direct;
  Concrete* inner = nullptr;
  if constexpr (std::is_base_of_v<core::WriterClient, Concrete>) {
    if (auto* wrap = dynamic_cast<ShardWriter*>(client)) {
      inner = dynamic_cast<Concrete*>(&wrap->inner());
    }
  } else {
    if (auto* wrap = dynamic_cast<ShardReader*>(client)) {
      inner = dynamic_cast<Concrete*>(&wrap->inner());
    }
  }
  RR_ASSERT_MSG(inner != nullptr,
                "typed client accessor does not match the protocol");
  return *inner;
}

}  // namespace

core::Writer& Deployment::core_writer() {
  return typed_client<core::Writer>(writers_[0]);
}

core::SafeReader& Deployment::safe_reader(int j) {
  RR_ASSERT(j >= 0 && j < opts_.res.num_readers);
  return typed_client<core::SafeReader>(
      readers_[0][static_cast<std::size_t>(j)]);
}

core::RegularReader& Deployment::regular_reader(int j) {
  RR_ASSERT(j >= 0 && j < opts_.res.num_readers);
  return typed_client<core::RegularReader>(
      readers_[0][static_cast<std::size_t>(j)]);
}

baselines::PollingReader& Deployment::polling_reader(int j) {
  RR_ASSERT(j >= 0 && j < opts_.res.num_readers);
  return typed_client<baselines::PollingReader>(
      readers_[0][static_cast<std::size_t>(j)]);
}

baselines::AuthReader& Deployment::auth_reader(int j) {
  RR_ASSERT(j >= 0 && j < opts_.res.num_readers);
  return typed_client<baselines::AuthReader>(
      readers_[0][static_cast<std::size_t>(j)]);
}

net::Process& Deployment::object_process(int i) {
  return backend_->process(layout_.object(i));
}

}  // namespace rr::harness
